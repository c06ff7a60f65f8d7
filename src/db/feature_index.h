/// \file feature_index.h
/// \brief Cluster-pruned exact kNN index over final feature vectors — the
/// iDistance-style "indexing technique to prune irrelevant motions" the
/// paper points to for fast searching (its refs [14]/[13]).
///
/// Construction partitions the records with k-means; each partition keeps
/// its reference point (centroid), covering radius, a contiguous
/// row-major copy of its member records plus their squared norms
/// (DESIGN.md §10.3), and — since the quantized tier (§11) — int8
/// per-dimension affine codes of the same rows with a measured
/// reconstruction-error bound. A query visits partitions in ascending
/// distance-to-reference order, prunes whole partitions with the
/// triangle-inequality bound d(q, ref) − radius, and inside a surviving
/// partition runs a two-tier scan: an exact-integer coarse pass over
/// the int8 codes (1 byte/dim of memory traffic instead of 8, int32
/// arithmetic instead of doubles) discards every record whose
/// *provable* distance lower bound exceeds the current k-th best, and
/// only the survivors are re-ranked with the exact full-precision
/// kernels. Partitions too small to code are scored exactly, every
/// row, from a copy stored as 8-row tiles (DESIGN.md §19). Results are
/// bit-identical to the linear scan — the coarse tier only ever changes
/// how much full-precision work is done, never which hits are
/// reported.
///
/// Rebuild runs the seeded k-means (the partition layout) and packs
/// every partition from the database's rows. ApplyUpdate repacks only
/// the partition that owns an updated record, through the same packing
/// routine, so that partition holds exactly the bytes a full pack of
/// the same membership would.
///
/// Staleness: the index records the database epoch it last absorbed;
/// once the database mutates (Insert/UpdateFeature), queries fail with
/// FailedPrecondition until Rebuild(), or — for one UpdateFeature —
/// until ApplyUpdate() repacks the partition that owns the record.

#ifndef MOCEMG_DB_FEATURE_INDEX_H_
#define MOCEMG_DB_FEATURE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/motion_database.h"
#include "linalg/matrix.h"
#include "util/parallel.h"
#include "util/result.h"
#include "util/top_k.h"

namespace mocemg {

/// \brief Storage precision of the exact-scan tier (DESIGN.md §15).
/// f32 packs a float32 mirror of every partition's SoA block next to
/// the double block: the dot-form scan streams 4 bytes/dim instead of
/// 8 and doubles the SIMD lane count, and every candidate within the
/// certified `Float32DotFormErrorBound` margin of the k-th best is
/// re-evaluated through the double kernels — reported hits stay
/// bit-identical to the f64 path (and the linear scan) on every
/// backend and thread count. kDefault resolves through the
/// MOCEMG_EXACT_PRECISION env ("f64"/"f32"; unset or invalid → f64,
/// invalid warns once); an explicit option always wins over the env.
enum class ExactPrecision : uint8_t {
  kDefault = 0,  ///< resolve via MOCEMG_EXACT_PRECISION, else f64
  kF64 = 1,      ///< double-only exact scan (the historical behaviour)
  kF32 = 2,      ///< float32 mirror scan + error-bound-gated f64 refine
};

/// \brief Stable lowercase name ("default", "f64", "f32").
const char* ExactPrecisionName(ExactPrecision precision);

/// \brief Parses "f64"/"f32"/"default" (as accepted by the env).
Result<ExactPrecision> ParseExactPrecision(const std::string& name);

/// \brief Resolves kDefault against MOCEMG_EXACT_PRECISION (read once;
/// unset or unparsable → kF64 with a one-time warning on bad values).
/// Non-default inputs pass through unchanged.
ExactPrecision ResolveExactPrecision(ExactPrecision precision);

/// \brief Index construction parameters.
struct FeatureIndexOptions {
  /// Number of k-means partitions; 0 = auto (≈ √N, at least 1).
  size_t num_partitions = 0;
  uint64_t seed = 17;
  /// Two-tier scan: build int8 codes at Rebuild and use the coarse
  /// pass to prune records before the exact re-rank. Results are
  /// bit-identical either way; OFF skips the codes entirely and scans
  /// every partition with the exact tiled kernel alone.
  bool quantized_scan = true;
  /// Coarse-code width: 8 (one byte per dim, 256-level grid) or 4
  /// (nibble-packed two dims per byte, 16-level grid — half the coarse
  /// memory traffic, a 17× coarser grid so spread partitions prune
  /// less). Exact results are bit-identical at either width; only the
  /// coarse pruning power and CoarseNearestNeighbors' certified error
  /// bound change. Any other value fails Build/Pack.
  size_t quant_bits = 8;
  /// Partitions with fewer rows than this are scanned directly with
  /// the exact tiled kernel: the coarse pass carries a fixed
  /// per-partition cost (query clamp + encode + residual measurement +
  /// threshold math), and below a few hundred rows that overhead
  /// exceeds the full-precision work it could save — measured on the
  /// √N-partition default layout, where ~100-row partitions ran ~1.3x
  /// slower with codes than without. Pure build-time property, so scan
  /// behaviour stays deterministic.
  size_t quantized_min_rows = 256;
  /// Exact-tier storage precision (see ExactPrecision above). Resolved
  /// (env applied) at Build/Rebuild and stored back, so snapshots and
  /// ApplyUpdate see the concrete choice, not kDefault. Results
  /// are bit-identical at either precision; only bandwidth changes.
  ExactPrecision exact_precision = ExactPrecision::kDefault;
  /// Parallelism for Rebuild's per-partition packing pass and for
  /// BatchNearestNeighbors. Queries are read-only over the built index,
  /// so results are bit-identical at any thread count.
  ParallelOptions parallel;
};

/// \brief Query-time statistics (filled per query).
struct IndexQueryStats {
  /// Full-precision distance evaluations (partition references + exact
  /// scans + coarse-survivor re-ranks). The coarse-tier win is this
  /// number shrinking relative to the records visited.
  size_t distance_computations = 0;
  size_t partitions_visited = 0;
  size_t partitions_pruned = 0;
  /// Records scored by the int8 coarse pass (1 byte/dim traffic).
  size_t coarse_computations = 0;
  /// Records the coarse bound discarded without exact evaluation.
  size_t coarse_pruned = 0;
  /// Records scored through the float32 mirror (4 bytes/dim traffic
  /// instead of 8). Zero unless the index packed mirrors (f32 tier).
  size_t f32_scans = 0;
  /// f32-scanned records whose fp32 distance fell within the certified
  /// margin of the k-th best and were re-evaluated in double. The f32
  /// tier's win is f32_refined staying a small fraction of f32_scans.
  size_t f32_refined = 0;
};

class IndexSnapshotCodec;

/// \brief Exact cluster-pruned kNN index. The index copies each
/// partition's features into its own packed block at Build/Rebuild;
/// rebuilding after inserts is the caller's responsibility (Rebuild()),
/// and an UpdateFeature can be absorbed in place with ApplyUpdate().
class FeatureIndex {
 public:
  FeatureIndex() = default;

  /// \brief Builds over the database's current records.
  static Result<FeatureIndex> Build(const MotionDatabase* database,
                                    const FeatureIndexOptions& options = {});

  /// \brief Rebuilds over the database's current records (repacks every
  /// partition block, its norms, and its quantized codes from the
  /// database's packed features) and adopts the database's current
  /// epoch.
  Status Rebuild();

  /// \brief Absorbs exactly one UpdateFeature mutation without a
  /// rebuild: repacks only the partition that owns `record_index`
  /// (block row, norms, radius, codes; O(partition) work) and adopts
  /// the database's epoch. Must be called once, in order, after each
  /// database UpdateFeature — the database epoch must be exactly one
  /// past built_epoch(). A record-count change since the last Rebuild
  /// (Insert) fails with FailedPrecondition and needs Rebuild(). The
  /// partition layout (references, membership) is kept, so the hits
  /// stay exact. Mutates the index: quiesce concurrent readers first.
  Status ApplyUpdate(size_t record_index);

  /// \brief Exact kNN; identical results to the database's linear scan.
  ///
  /// The coarse int8 pass (when enabled) prunes records whose
  /// triangle-inequality lower bound — inflated by the §11.2 error
  /// slack — provably exceeds the current k-th best; every survivor is
  /// evaluated with the exact kernels, so the reported hits (indices
  /// and distances, ties broken toward the smaller record index) are
  /// bit-identical to the linear scan's. Fails with FailedPrecondition
  /// when the database has mutated since the last Rebuild.
  Result<std::vector<QueryHit>> NearestNeighbors(
      const std::vector<double>& query, size_t k,
      IndexQueryStats* stats = nullptr) const;

  /// \brief kNN for a batch of queries: the per-query scan of
  /// NearestNeighbors, parallelized over queries with one scratch per
  /// chunk. Element i equals NearestNeighbors(queries[i], k) exactly,
  /// hits and stat contributions alike. Every query is validated
  /// before any is scanned, so an invalid batch fails with the lowest
  /// offending slot in the error context. `stats`, when given, is
  /// accumulated per chunk and combined in ascending chunk order, so
  /// it (like the hits) is identical at every thread count.
  /// `parallel_override`, when non-null, replaces the build options'
  /// ParallelOptions for this call (the query server passes its own
  /// budget through here).
  Result<std::vector<std::vector<QueryHit>>> BatchNearestNeighbors(
      const std::vector<std::vector<double>>& queries, size_t k,
      IndexQueryStats* stats = nullptr,
      const ParallelOptions* parallel_override = nullptr) const;

  /// \brief Approximate kNN answered from the int8 coarse tier alone —
  /// the query server's degraded mode under overload (DESIGN.md §12.2).
  ///
  /// Quantized partitions are scored with the integer code distance
  /// only (1 byte/dim of traffic, no exact re-rank); a hit's reported
  /// distance is the estimate `out + scale·√D` (out = the query's
  /// certified out-of-box energy for that partition's grid). Partitions
  /// without codes (below quantized_min_rows) are scanned with the
  /// cheap dot-form kernel instead. `error_bound`, when non-null,
  /// receives a certified absolute bound B such that every reported
  /// hit's true distance lies within [estimate − B, estimate + B]
  /// (derivation in DESIGN.md §12.2; B includes the §11.2 float slack).
  /// Deterministic: partitions are visited in index order with the
  /// usual (distance, index) tie-break, so the same query yields the
  /// same degraded answer on every replay. Fails with
  /// FailedPrecondition when the index is stale, exactly like the
  /// exact path.
  Result<std::vector<QueryHit>> CoarseNearestNeighbors(
      const std::vector<double>& query, size_t k,
      double* error_bound = nullptr,
      IndexQueryStats* stats = nullptr) const;

  /// \brief Degraded-mode kNN for a batch of queries, run like
  /// BatchNearestNeighbors over the per-query coarse scan. Element i
  /// (and error_bounds[i], when given) equals
  /// CoarseNearestNeighbors(queries[i], k) exactly at any thread count;
  /// validation and the stats combine match BatchNearestNeighbors.
  Result<std::vector<std::vector<QueryHit>>> BatchCoarseNearestNeighbors(
      const std::vector<std::vector<double>>& queries, size_t k,
      std::vector<double>* error_bounds = nullptr,
      IndexQueryStats* stats = nullptr,
      const ParallelOptions* parallel_override = nullptr) const;

  size_t num_partitions() const { return partitions_.size(); }

  /// \brief True when at least one partition carries int8 codes — the
  /// precondition for CoarseNearestNeighbors giving any speedup and
  /// for the query server's degraded mode.
  bool has_quantized_tier() const {
    for (const Partition& p : partitions_) {
      if (p.quantized()) return true;
    }
    return false;
  }

  /// \brief The database epoch of the last Rebuild or ApplyUpdate;
  /// queries require database->epoch() to still equal it.
  uint64_t built_epoch() const { return built_epoch_; }

  /// \brief The options the index was built with (snapshots persist
  /// them so a reloaded index rebuilds identically).
  const FeatureIndexOptions& options() const { return options_; }

 private:
  /// The snapshot codec (db/index_snapshot.cc) serializes and restores
  /// the private representation verbatim.
  friend class IndexSnapshotCodec;

  struct Partition {
    double radius = 0.0;      ///< covering radius (true distance)
    double radius_sq = 0.0;   ///< radius², for the sqrt-free prune
    double max_norm_sq = 0.0; ///< max ‖record‖² in the block (error bound)
    /// Member records, ascending database order.
    std::vector<size_t> record_indices;
    /// SoA: the members' features packed row-major (size × dim), and
    /// their squared norms for the coarse scans' dot form.
    std::vector<double> block;
    std::vector<double> norms_sq;
    /// The f64 tier's copy of `block` as 8-row tiles, dimension-major
    /// within a tile (PackL2Tiles), which the exact scan reads through
    /// SquaredL2Tiles (DESIGN.md §19). Empty when the partition is
    /// coded. Derived from `block`, so snapshots do not store it.
    std::vector<double> tiles;
    /// Quantized tier (empty when disabled or below quantized_min_rows):
    /// per-dimension offsets + uniform scale of the affine grid and the
    /// members' integer codes, plus the partition's worst measured
    /// reconstruction error ‖r − r̃‖² (inflated by the build-side
    /// slack) and the grid bounding box's squared-norm bound — the two
    /// scalars the provable integer prune leans on. `quant_bits` is the
    /// code width: 8 → quant_codes is rows × dim bytes; 4 →
    /// nibble-packed rows × PackedNibbleStride(dim) bytes
    /// (quant_kernels.h).
    std::vector<double> quant_offsets;
    std::vector<uint8_t> quant_codes;
    double quant_scale = 0.0;
    double quant_err_sq = 0.0;
    double quant_box_sq = 0.0;
    uint8_t quant_bits = 8;
    /// float32 mirror of `block` + fp32 row norms (packed only when
    /// the resolved exact_precision is f32): the dot-form scan streams
    /// these at half the bytes/dim, with candidates near the k-th best
    /// re-ranked through `block`. `mirror_max_abs` is the largest
    /// element magnitude in the block, measured at pack time — the
    /// per-dim magnitude bound the float-precision error bound's
    /// subnormal term and the overflow gate lean on.
    std::vector<float> block_f32;
    std::vector<float> norms_f32;
    double mirror_max_abs = 0.0;

    size_t size() const { return record_indices.size(); }
    bool quantized() const { return !quant_codes.empty(); }
    bool mirrored() const { return !block_f32.empty(); }
    /// Top code of the grid (255 or 15).
    double quant_levels() const { return quant_bits == 4 ? 15.0 : 255.0; }
    /// Bytes per coded row (dim or ⌈dim/2⌉).
    size_t code_stride(size_t dim) const {
      return quant_bits == 4 ? (dim + 1) / 2 : dim;
    }
    /// Fills `tiles` from `block`; done for uncoded partitions only.
    void PackTiles(size_t dim);
  };

  /// Per-query scratch, reused across a batch chunk.
  struct Scratch {
    std::vector<double> ref_sq;   ///< squared distance to each reference
    std::vector<std::pair<double, size_t>> order;
    std::vector<double> dist;     ///< exact distances of one partition
    std::vector<double> qclamp;   ///< query clamped into the grid box
    std::vector<uint8_t> qcodes;  ///< query coded on a partition's grid
    std::vector<uint8_t> qpacked; ///< nibble-packed qcodes (4-bit tier)
    std::vector<double> decoded;  ///< q̃, for the residual measurement
    std::vector<uint32_t> ssd;    ///< integer coarse distances
    std::vector<float> query_f32; ///< fp32 copy of the query (f32 tier)
    std::vector<float> dist_f32;  ///< fp32 dot-form scan buffer
    std::vector<uint32_t> ridx;   ///< fp32 refine-survivor row indices
    std::vector<double> cand;     ///< survivors' fp32 dot-form distances
    std::vector<double> cand_sort;///< order-statistic buffer (§15.6)
    std::vector<double> rdist;    ///< gathered exact refine distances
    BoundedTopK top;
    std::vector<TopKEntry> entries;
  };

  /// Adopts a k-means layout (`references` row i and `members[i]`
  /// describe partition i; each list non-empty and ascending), packs
  /// every partition from the database's current packed features and
  /// fills record_to_partition_. Partitions pack independently in
  /// parallel; every stored quantity is a pure function of the
  /// partition's own rows, so the packed bytes are identical at any
  /// thread count.
  Status Pack(Matrix references,
              const std::vector<std::vector<size_t>>& members);

  /// Exact scan of every partition into `top` (squared-distance
  /// space). Visits partitions in ascending distance-to-reference order
  /// with the triangle-inequality prune; the caller owns Reset()ing the
  /// heap. Stats are accumulated (+=).
  void ScanExact(const std::vector<double>& query, double q_sq,
                 BoundedTopK* top, Scratch* scratch,
                 IndexQueryStats* stats) const;
  /// Coarse-tier scan of every partition into `top` (true-distance
  /// estimates, DESIGN.md §12.2). `bound` is raised (max) to cover
  /// every estimate pushed; the caller seeds it with 0. Stats are
  /// accumulated (+=).
  void ScanCoarse(const std::vector<double>& query, double q_sq,
                  BoundedTopK* top, double* bound, Scratch* scratch,
                  IndexQueryStats* stats) const;

  /// Fills everything but record_indices (already set) for one
  /// partition from the database's packed rows, under options_.
  void FillPartition(const double* packed, size_t dim,
                     const double* reference, Partition* part) const;
  /// Recomputes max_partition_size_ after packing or loading.
  void RefreshDerived();

  // Per-(query, partition) building blocks of the scans.

  /// Per-(query, partition) scalars of the coarse tier's provable
  /// prune, produced by the prep pass (clamp, encode, residual
  /// measurement) that the exact scan's coded visits and the
  /// degraded-mode coarse scan share.
  struct CoarsePrep {
    double out_sq = 0.0;  ///< certified out-of-box energy ‖q − q'‖²
    double q_res = 0.0;   ///< √(‖q' − q̃‖² + slack)
    double err = 0.0;     ///< √quant_err_sq (build-side inflated)
    double slack = 0.0;   ///< §11.2 float slack for this (q, partition)
  };

  /// Clamp + encode + residual measurement for the coarse tier; leaves
  /// the coded query in scratch->qcodes (unpacked, one byte per dim).
  CoarsePrep PrepCoarse(const double* query, double q_sq, size_t dim,
                        const Partition& part, Scratch* scratch) const;
  /// The coarse tier's evolving-threshold decision loop over rows
  /// [start, size()); ssd[j − start] is row j's integer distance.
  /// Survivors are exact-evaluated and pushed.
  void SelectCoarse(const double* query, size_t dim, const Partition& part,
                    size_t start, const uint32_t* ssd,
                    const CoarsePrep& prep, BoundedTopK* top,
                    IndexQueryStats* stats) const;
  /// One full coarse-tier partition visit for one query (seed + prep +
  /// integer scan + SelectCoarse) — the exact scan's quantized branch.
  void VisitCoarse(const double* query, double q_sq, size_t dim,
                   const Partition& part, BoundedTopK* top,
                   Scratch* scratch, IndexQueryStats* stats) const;
  /// Gather-refines the fp32 tier's survivor rows (one blocked f64
  /// kernel call) and pushes them in row order. Push order cannot
  /// change the final top-k set (top_k.h).
  void RefinePush(const double* query, size_t dim, const Partition& part,
                  const std::vector<uint32_t>& ridx,
                  std::vector<double>* rdist, BoundedTopK* top) const;
  /// The f64 tier's partition visit: scores every row exactly from the
  /// tiles into `dist` (size() entries) and pushes each row that can
  /// still enter `top`.
  void PushTiled(const double* query, size_t dim, const Partition& part,
                 double* dist, BoundedTopK* top) const;

  /// The exact path's preconditions (built, fresh epoch, dimension,
  /// k >= 1, finite query) with its exact status messages — shared by
  /// the per-query and batch entry points so an invalid query fails
  /// identically through either.
  Status ValidateQuery(const std::vector<double>& query, size_t k) const;
  /// ValidateQuery over a batch, in slot order; the first failure gets
  /// its slot in the error context.
  Status ValidateBatch(const std::vector<std::vector<double>>& queries,
                       size_t k) const;

  /// The exact and coarse scans of one validated query. Stats are
  /// accumulated (+=); the coarse scan also raises `*bound`.
  std::vector<QueryHit> ExactHits(const std::vector<double>& query,
                                  size_t k, Scratch* scratch,
                                  IndexQueryStats* stats) const;
  std::vector<QueryHit> CoarseHits(const std::vector<double>& query,
                                   size_t k, double* bound,
                                   Scratch* scratch,
                                   IndexQueryStats* stats) const;

  const MotionDatabase* database_ = nullptr;
  FeatureIndexOptions options_;
  std::vector<Partition> partitions_;
  /// Partition references packed row-major (num_partitions × dim) so
  /// the visit-order pass is one one-to-many kernel call.
  Matrix references_;
  size_t max_partition_size_ = 0;
  /// Owning partition of every record present at the last Rebuild (or
  /// snapshot load) — ApplyUpdate's lookup, 4 bytes per record.
  std::vector<uint32_t> record_to_partition_;
  uint64_t built_epoch_ = 0;
};

}  // namespace mocemg

#endif  // MOCEMG_DB_FEATURE_INDEX_H_
