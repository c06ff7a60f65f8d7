/// \file sharded_index.h
/// \brief Sharded scatter-gather composition of the cluster-pruned kNN
/// index (DESIGN.md §13).
///
/// A ShardedFeatureIndex computes the SAME global k-means partition
/// layout as FeatureIndex (same seed → same partitions, same quantized
/// grids) and distributes whole partitions across N shards round-robin
/// (partition p → shard p mod N). Each shard owns an IndexPartitionSet
/// — its own SoA blocks, squared norms, int8 coarse tier — plus a
/// per-shard epoch. kNN is scatter-gather: every shard scans into its
/// own bounded top-k heap and the per-shard sorted lists are merged in
/// fixed shard order with the usual (distance, index) tie-break.
///
/// Bit-identity argument: every per-record quantity the scans produce
/// (exact distance, coarse estimate `out + s·√D`, the per-partition
/// error-bound scalar) is a pure function of the partition that owns
/// the record — never of which other partitions share its set. The
/// exact top-k is in turn a pure function of the candidate set under
/// the (distance, index) order. Regrouping partitions into shards
/// therefore changes only *where* candidates are scored, not any
/// score, so merged results are bit-identical to the single-set scan
/// for BOTH the exact and the degraded coarse path, at any shard
/// count and any thread count. N = 1 is literally FeatureIndex's scan.
///
/// Mutation model: the database epoch still advances on every
/// mutation, but a ShardedFeatureIndex can absorb an UpdateFeature
/// without a global rebuild: ApplyUpdate(record) repacks only the
/// partition owning the record (O(partition) work: block row, norms,
/// radius, re-quantize) and bumps only the owning shard's epoch. The
/// serving cache keys validity on the shard-epoch vector, so a
/// mutation invalidates only entries that provably depended on the
/// mutated shard (query_server.h). Inserts/removals change the record
/// set and still require a full Rebuild().
///
/// Thread safety: queries are const and safe to run concurrently;
/// ApplyUpdate/Rebuild mutate and require the caller to quiesce
/// readers first (the query server's SwapIndex does this for index
/// replacement; for in-place ApplyUpdate, stop the worker or drain
/// first).

#ifndef MOCEMG_DB_SHARDED_INDEX_H_
#define MOCEMG_DB_SHARDED_INDEX_H_

#include <cstdint>
#include <vector>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "util/parallel.h"
#include "util/result.h"

namespace mocemg {

/// \brief Sharded index construction parameters.
struct ShardedIndexOptions {
  /// Layout/quantization/parallel knobs, shared with FeatureIndex so
  /// the same options produce the same global partition layout.
  FeatureIndexOptions index;
  /// Number of shards; 0 = auto (min(4, partition count)). More shards
  /// than partitions is allowed — the excess shards are empty and
  /// contribute nothing.
  size_t num_shards = 0;
};

/// \brief N-shard scatter-gather kNN index; results bit-identical to
/// FeatureIndex / the linear scan at any (shard count × thread count).
class ShardedFeatureIndex {
 public:
  ShardedFeatureIndex() = default;

  /// \brief Builds over the database's current records.
  static Result<ShardedFeatureIndex> Build(
      const MotionDatabase* database, const ShardedIndexOptions& options = {});

  /// \brief Full rebuild: re-runs the k-means layout, repacks every
  /// shard, resets every shard epoch to the database's current epoch.
  Status Rebuild();

  /// \brief Absorbs exactly one UpdateFeature mutation without a
  /// rebuild: repacks the partition owning `record_index` and bumps
  /// only the owning shard's epoch. Must be called once, in order,
  /// after each database UpdateFeature (the database epoch must be
  /// exactly one past the last applied epoch); a record-count change
  /// (Insert) fails with FailedPrecondition and requires Rebuild().
  /// Quiesce concurrent readers first.
  Status ApplyUpdate(size_t record_index);

  /// \brief Exact kNN, scatter-gather across shards (serial shard
  /// loop); bit-identical to the database's linear scan. `per_shard`,
  /// when given, is resized to num_shards() and receives each shard's
  /// scan stats.
  Result<std::vector<QueryHit>> NearestNeighbors(
      const std::vector<double>& query, size_t k,
      IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr) const;

  /// \brief Batch kNN parallelized over the (query × shard) task grid:
  /// each cell runs one shard's per-query scan. Cells overlap freely,
  /// and the per-shard lists are merged per query in fixed shard order,
  /// so results and stats are identical at every thread count. Element
  /// i equals NearestNeighbors(queries[i], k) exactly.
  Result<std::vector<std::vector<QueryHit>>> BatchNearestNeighbors(
      const std::vector<std::vector<double>>& queries, size_t k,
      IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr,
      const ParallelOptions* parallel_override = nullptr) const;

  /// \brief Degraded-mode kNN from the coarse tier (DESIGN.md §12.2),
  /// scatter-gather: per-shard coarse scans merged in shard order, the
  /// certified |est − true| bound maxed across shards. Bit-identical
  /// to FeatureIndex::CoarseNearestNeighbors over the same layout at
  /// any shard count.
  Result<std::vector<QueryHit>> CoarseNearestNeighbors(
      const std::vector<double>& query, size_t k,
      double* error_bound = nullptr, IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr) const;

  /// \brief Degraded-mode kNN for a batch of queries over the same
  /// (query × shard) grid as BatchNearestNeighbors, using the coarse
  /// scan. Element i (and error_bounds[i]) equals
  /// CoarseNearestNeighbors(queries[i], k) exactly at any shard count
  /// and thread count.
  Result<std::vector<std::vector<QueryHit>>> BatchCoarseNearestNeighbors(
      const std::vector<std::vector<double>>& queries, size_t k,
      std::vector<double>* error_bounds = nullptr,
      IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr,
      const ParallelOptions* parallel_override = nullptr) const;

  /// \brief The shard owning `record_index` (valid for records present
  /// at the last Rebuild).
  Result<size_t> ShardOfRecord(size_t record_index) const;

  /// \brief True when every record in shard `shard` is provably
  /// farther than `kth` (true distance) from `query` — the
  /// triangle-inequality certificate the serving cache uses to keep an
  /// entry alive across a mutation to a shard none of its hits touch.
  /// Conservative: false negatives only cost a cache miss.
  bool ShardAllBeyond(size_t shard, const std::vector<double>& query,
                      double kth) const;

  size_t num_shards() const { return shards_.size(); }
  size_t num_partitions() const;
  bool has_quantized_tier() const;

  /// \brief The database epoch the index has fully absorbed (build or
  /// ApplyUpdate); queries require database->epoch() to equal it.
  uint64_t applied_epoch() const { return applied_epoch_; }

  /// \brief Per-shard epochs: shard s's value is the database epoch of
  /// the last mutation applied to it (or the build epoch). The serving
  /// cache snapshots this vector into every entry it stores.
  const std::vector<uint64_t>& shard_epochs() const { return shard_epochs_; }

  const ShardedIndexOptions& options() const { return options_; }
  const MotionDatabase* database() const { return database_; }

 private:
  /// The snapshot codec (db/index_snapshot.cc) serializes and restores
  /// the private representation verbatim.
  friend class IndexSnapshotCodec;

  Status ValidateQuery(const std::vector<double>& query, size_t k) const;

  const MotionDatabase* database_ = nullptr;
  ShardedIndexOptions options_;
  /// Shard s owns global partitions {p : p mod N == s}, in ascending
  /// global order (local index p / N).
  std::vector<IndexPartitionSet> shards_;
  std::vector<uint64_t> shard_epochs_;
  uint64_t applied_epoch_ = 0;
  /// Global layout bookkeeping: every record's owning global partition
  /// and the full reference matrix in global partition order — the
  /// snapshot manifest persists these so a lost shard can be repacked
  /// without re-running k-means.
  std::vector<uint32_t> record_to_partition_;
  Matrix global_references_;
};

}  // namespace mocemg

#endif  // MOCEMG_DB_SHARDED_INDEX_H_
