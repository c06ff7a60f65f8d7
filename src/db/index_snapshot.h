/// \file index_snapshot.h
/// \brief Crash-safe persistence for the one serving index, a built
/// FeatureIndex, as a single snapshot file.
///
/// A FeatureIndex over millions of records takes seconds to minutes to
/// rebuild (k-means + SoA packing + quantization); losing it to a
/// process restart turns every crash into a cold-start storm. This
/// module serializes the full index representation — SoA partition
/// blocks, norms, the quantized tier (int8 or 4-bit nibble-packed,
/// with its code width recorded per partition), references, build
/// options, and the database epoch it was built against — to a
/// versioned, checksummed binary snapshot, and restores it
/// bit-identically: a loaded index answers every query with exactly
/// the bytes the saved one would have produced.
///
/// Format ("MOCEMGIX3", little-endian, DESIGN.md §12.3; version-2
/// files are still read): a fixed header carrying the magic, the
/// payload byte count, and an FNV-1a64 checksum of the payload, then
/// the payload itself. Truncation is caught by the length check, any
/// in-place corruption by the checksum, format drift by the
/// magic/version — each with a distinct ParseError so operators can
/// tell a half-written file from a bit-rotted one. A payload that
/// passes the checksum because it was *written* wrong is held to the
/// same shape checks: every count is bounded, and the partitions must
/// list every database record exactly once. SaveFeatureIndex writes to a temporary sibling and
/// commits with an atomic rename, so a crash mid-save can never leave
/// a torn file at the target path (the model_io convention, hardened).
///
/// LoadOrRebuildFeatureIndex is the recovery entry point servers use
/// at boot: it tries the snapshot, validates it against the database
/// (dimension, record indices, epoch), and on ANY failure logs the
/// reason and falls back to a clean Build — corrupted state degrades
/// to a slow start, never to wrong answers.

#ifndef MOCEMG_DB_INDEX_SNAPSHOT_H_
#define MOCEMG_DB_INDEX_SNAPSHOT_H_

#include <string>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "util/result.h"

namespace mocemg {

/// \brief How a LoadOrRebuildFeatureIndex call obtained its index.
struct IndexSnapshotLoadInfo {
  /// True when the snapshot loaded and validated cleanly.
  bool loaded_from_snapshot = false;
  /// True when the index was rebuilt from the database instead.
  bool rebuilt = false;
  /// Human-readable reason for the fallback (empty on a clean load).
  std::string fallback_reason;
};

/// \brief Serializes a built index to the snapshot byte format.
/// Fails with FailedPrecondition when the index is not built.
Result<std::string> SerializeFeatureIndex(const FeatureIndex& index);

/// \brief Reconstructs an index over `database` from snapshot bytes.
/// Validates magic/version, length (truncation), checksum (corruption),
/// and shape against the database (dimension, record indices in range,
/// every record in exactly one partition). The loaded index keeps the snapshot's built_epoch; if the
/// database has mutated past it, queries fail with FailedPrecondition
/// exactly as after any other mutation — staleness is not hidden by
/// the load. `database` must outlive the returned index.
Result<FeatureIndex> DeserializeFeatureIndex(
    const std::string& bytes, const MotionDatabase* database);

/// \brief Writes the snapshot atomically: serialize, write to
/// `path + ".tmp"`, flush, then rename onto `path`. Readers of `path`
/// therefore see either the old complete snapshot or the new complete
/// snapshot, never a torn intermediate.
Status SaveFeatureIndex(const FeatureIndex& index,
                        const std::string& path);

/// \brief Reads and validates a snapshot file.
Result<FeatureIndex> LoadFeatureIndex(const std::string& path,
                                      const MotionDatabase* database);

/// \brief Boot-time recovery: load the snapshot at `path`, or — when
/// the file is missing, truncated, corrupted, shape-invalid, or stale
/// relative to the database epoch — log the reason and rebuild from
/// the database with `rebuild_options`. `info`, when given, reports
/// which path was taken and why.
Result<FeatureIndex> LoadOrRebuildFeatureIndex(
    const std::string& path, const MotionDatabase* database,
    const FeatureIndexOptions& rebuild_options = {},
    IndexSnapshotLoadInfo* info = nullptr);

}  // namespace mocemg

#endif  // MOCEMG_DB_INDEX_SNAPSHOT_H_
