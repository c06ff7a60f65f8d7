#include "db/feature_index.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>

#include "cluster/kmeans.h"
#include "util/distance_kernels.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/quant_kernels.h"

namespace mocemg {
namespace {

// fp32 overflow gate for the mirror tier (DESIGN.md §15.3): a
// partition is mirrored only when its max ‖r‖² stays below this, and a
// query uses a partition's mirror only when q² + max ‖r‖² does too.
// Element magnitudes are then < 1e15 (f64→f32 conversion stays finite
// and defined) and every fp32 partial sum stays below ~5e29 ≪ FLT_MAX,
// so the mirror scan can produce no Inf and — NaN-free inputs being
// guaranteed upstream — no NaN.
constexpr double kF32TierNormGate = 1e30;

// Second prune stage for the fp32 tier's frozen-gate survivors
// (DESIGN.md §15.6). With |dist − true| <= margin for every scored
// row, at least k candidates have a true distance no greater than
// kthC + margin, where kthC is the k-th smallest candidate dot-form
// distance — and they all reach the same heap as any other candidate
// from this partition. A candidate with dist > kthC + 2·margin
// therefore provably cannot make the final top k, no matter what the
// heap held at partition entry; without this stage an entry-time gate
// alone refines the entire first partition of every query (empty
// heap → infinite threshold). NaN distances are kept — they must reach
// the exact re-check — and sit out of the order statistic.
void SelfGateCandidates(size_t k, double margin,
                        std::vector<uint32_t>* ridx,
                        std::vector<double>* cand,
                        std::vector<double>* sort_tmp) {
  if (k == 0 || ridx->size() <= k) return;
  sort_tmp->clear();
  for (const double d : *cand) {
    if (!std::isnan(d)) sort_tmp->push_back(d);
  }
  if (sort_tmp->size() < k) return;
  std::nth_element(sort_tmp->begin(), sort_tmp->begin() + (k - 1),
                   sort_tmp->end());
  const double thresh = (*sort_tmp)[k - 1] + 2.0 * margin;
  size_t w = 0;
  for (size_t i = 0; i < ridx->size(); ++i) {
    if (!((*cand)[i] > thresh)) {
      (*ridx)[w] = (*ridx)[i];
      (*cand)[w] = (*cand)[i];
      ++w;
    }
  }
  ridx->resize(w);
  cand->resize(w);
}

// MOCEMG_EXACT_PRECISION, read once at first resolution.
ExactPrecision EnvExactPrecision() {
  static const ExactPrecision value = [] {
    const char* env = std::getenv("MOCEMG_EXACT_PRECISION");
    if (env == nullptr || env[0] == '\0') return ExactPrecision::kF64;
    const Result<ExactPrecision> parsed = ParseExactPrecision(env);
    if (!parsed.ok() ||
        parsed.ValueOrDie() == ExactPrecision::kDefault) {
      MOCEMG_LOG(kWarning)
          << "MOCEMG_EXACT_PRECISION=" << env
          << " is not f64/f32; using f64";
      return ExactPrecision::kF64;
    }
    return parsed.ValueOrDie();
  }();
  return value;
}

// The partition layout: k-means references plus each partition's
// member records (ascending database order), empty partitions already
// dropped.
struct IndexLayout {
  // Partition references packed row-major (num_partitions × dim).
  Matrix references;
  // members[i] = the records of partition i, ascending.
  std::vector<std::vector<size_t>> members;
};

// Runs the seeded k-means over the database's packed features and
// returns the partition layout. `options.num_partitions` == 0 picks
// ≈ √N; empty partitions (k-means can strand one on tiny databases)
// are dropped. Deterministic in (database bytes, options).
Result<IndexLayout> ComputeIndexLayout(const MotionDatabase& database,
                                       const FeatureIndexOptions& options) {
  if (database.empty()) {
    return Status::FailedPrecondition("database is empty");
  }
  const size_t n = database.size();
  const size_t d = database.feature_dimension();
  size_t p = options.num_partitions;
  if (p == 0) {
    p = std::max<size_t>(
        1, static_cast<size_t>(std::lround(std::sqrt(
               static_cast<double>(n)))));
  }
  p = std::min(p, n);

  // The database's packed block is already the row-major points layout
  // k-means wants; copy it wholesale instead of row by row.
  Matrix points(n, d);
  points.mutable_data() = database.packed_features();
  KmeansOptions km;
  km.num_clusters = p;
  km.seed = options.seed;
  MOCEMG_ASSIGN_OR_RETURN(KmeansModel model, FitKmeans(points, km));

  std::vector<std::vector<size_t>> members(p);
  for (size_t k = 0; k < n; ++k) {
    members[model.assignments[k]].push_back(k);
  }
  // Drop empty partitions (k-means can strand one on tiny databases),
  // keeping the references aligned with the survivors.
  IndexLayout layout;
  layout.references = Matrix(0, d);
  layout.members.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    if (members[i].empty()) continue;
    MOCEMG_RETURN_NOT_OK(
        layout.references.AppendRows(model.centers.RowSlice(i, i + 1)));
    layout.members.push_back(std::move(members[i]));
  }
  return layout;
}

}  // namespace

const char* ExactPrecisionName(ExactPrecision precision) {
  switch (precision) {
    case ExactPrecision::kDefault:
      return "default";
    case ExactPrecision::kF64:
      return "f64";
    case ExactPrecision::kF32:
      return "f32";
  }
  return "unknown";
}

Result<ExactPrecision> ParseExactPrecision(const std::string& name) {
  if (name == "default") return ExactPrecision::kDefault;
  if (name == "f64" || name == "double") return ExactPrecision::kF64;
  if (name == "f32" || name == "float") return ExactPrecision::kF32;
  return Status::InvalidArgument(
      "unknown exact precision \"" + name + "\" (want f64 or f32)");
}

ExactPrecision ResolveExactPrecision(ExactPrecision precision) {
  return precision == ExactPrecision::kDefault ? EnvExactPrecision()
                                               : precision;
}

void FeatureIndex::FillPartition(const double* packed, size_t dim,
                                 const double* reference,
                                 Partition* part) const {
  const size_t rows = part->size();
  part->radius_sq = 0.0;
  part->max_norm_sq = 0.0;
  part->block.resize(rows * dim);
  part->norms_sq.resize(rows);
  for (size_t j = 0; j < rows; ++j) {
    const size_t rec = part->record_indices[j];
    const double* row = packed + rec * dim;
    part->radius_sq =
        std::max(part->radius_sq, SquaredL2Dispatched(row, reference, dim));
    const double norm_sq = SquaredNorm(row, dim);
    part->max_norm_sq = std::max(part->max_norm_sq, norm_sq);
    std::memcpy(part->block.data() + j * dim, row, dim * sizeof(double));
    part->norms_sq[j] = norm_sq;
  }
  part->radius = std::sqrt(part->radius_sq);
  part->tiles.clear();
  // fp32 mirror tier (DESIGN.md §15): partitions the quantized tier
  // will *not* code get a float32 copy of the block plus fp32 row
  // norms, so the exact scan can run the cheaper fp32 dot-form kernel
  // and re-evaluate in double only the rows inside the certified fp32
  // error bound. The pack-time norm gate keeps every f64→f32
  // conversion finite (and defined behaviour); mirror_max_abs feeds
  // the subnormal term of Float32DotFormErrorBound.
  part->block_f32.clear();
  part->norms_f32.clear();
  part->mirror_max_abs = 0.0;
  const bool coded = options_.quantized_scan && dim <= 60000 &&
                     rows > 0 && rows >= options_.quantized_min_rows;
  if (!coded && rows > 0 &&
      ResolveExactPrecision(options_.exact_precision) ==
          ExactPrecision::kF32 &&
      part->max_norm_sq < kF32TierNormGate) {
    double max_abs = 0.0;
    for (size_t j = 0; j < rows * dim; ++j) {
      max_abs = std::max(max_abs, std::fabs(part->block[j]));
    }
    part->mirror_max_abs = max_abs;
    part->block_f32.resize(rows * dim);
    for (size_t j = 0; j < rows * dim; ++j) {
      part->block_f32[j] = static_cast<float>(part->block[j]);
    }
    part->norms_f32.resize(rows);
    RowSquaredNormsF32(part->block_f32.data(), rows, dim,
                       part->norms_f32.data());
  }
  // Quantized tier: code the partition on its own integer grid (8-bit
  // or nibble-packed 4-bit per options_.quant_bits) and *measure* the
  // worst reconstruction error — the provable prune leans on this
  // number, not on an analytic half-step bound, so heavy-tailed
  // columns can only cost pruning power, not correctness. The integer
  // coarse distance Σ(qc − c)² must fit uint32: d · 255² < 2³² (the
  // 4-bit grid's 15² bound is even further from the gate). Any
  // realistic feature width is far below it.
  part->quant_offsets.clear();
  part->quant_codes.clear();
  part->quant_scale = 0.0;
  part->quant_err_sq = 0.0;
  part->quant_box_sq = 0.0;
  part->quant_bits = static_cast<uint8_t>(options_.quant_bits);
  const bool quantizable = options_.quantized_scan && dim <= 60000;
  if (!quantizable || rows == 0 || rows < options_.quantized_min_rows) {
    // Uncoded: the exact scan reads the tiled copy (DESIGN.md §19).
    part->PackTiles(dim);
    return;
  }
  const uint32_t levels = part->quant_bits == 4 ? 15u : 255u;
  part->quant_offsets.resize(dim);
  ComputeQuantGrid(part->block.data(), rows, dim,
                   part->quant_offsets.data(), &part->quant_scale, levels);
  // Codes are produced unpacked (one byte per dim) for the error
  // measurement, then nibble-packed for storage when 4-bit.
  std::vector<uint8_t> unpacked(rows * dim);
  QuantizeRows(part->block.data(), rows, dim, part->quant_offsets.data(),
               part->quant_scale, unpacked.data(), levels);
  // Squared-norm bound over the whole grid bounding box (any
  // reconstruction — of a row or of a clamped query — lies inside
  // it); feeds the slack's magnitude argument.
  double box_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double lo = part->quant_offsets[j];
    const double hi =
        lo + static_cast<double>(levels) * part->quant_scale;
    box_sq += std::max(lo * lo, hi * hi);
  }
  part->quant_box_sq = box_sq;
  std::vector<double> decoded(dim);
  double max_err = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    DequantizeRow(unpacked.data() + r * dim, dim,
                  part->quant_offsets.data(), part->quant_scale,
                  decoded.data());
    max_err = std::max(max_err,
                       SquaredL2Dispatched(part->block.data() + r * dim,
                                           decoded.data(), dim));
  }
  // Inflate the measured error by the build-side accumulation slack so
  // ‖r − r̃‖² (exact real value) is provably covered.
  part->quant_err_sq =
      max_err + QuantScanSlack(dim, part->max_norm_sq, box_sq);
  if (part->quant_bits == 4) {
    part->quant_codes.resize(rows * PackedNibbleStride(dim));
    PackNibbleRows(unpacked.data(), rows, dim, part->quant_codes.data());
  } else {
    part->quant_codes = std::move(unpacked);
  }
}

void FeatureIndex::Partition::PackTiles(size_t dim) {
  tiles.resize(L2TilesSize(size(), dim));
  PackL2Tiles(block.data(), size(), dim, tiles.data());
}

void FeatureIndex::RefreshDerived() {
  max_partition_size_ = 0;
  for (const Partition& part : partitions_) {
    max_partition_size_ = std::max(max_partition_size_, part.size());
  }
}

Status FeatureIndex::Pack(Matrix references,
                          const std::vector<std::vector<size_t>>& members) {
  const size_t d = database_->feature_dimension();
  if (options_.quant_bits != 8 && options_.quant_bits != 4) {
    return Status::InvalidArgument(
        "quant_bits must be 8 or 4, got " +
        std::to_string(options_.quant_bits));
  }
  if (members.size() >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "partition count overflows the record map");
  }
  references_ = std::move(references);
  partitions_.assign(members.size(), Partition{});
  record_to_partition_.assign(database_->size(), 0);
  for (size_t i = 0; i < members.size(); ++i) {
    partitions_[i].record_indices = members[i];
    for (size_t rec : members[i]) {
      record_to_partition_[rec] = static_cast<uint32_t>(i);
    }
  }
  // Partitions fill independently (radius, block, norms, codes are pure
  // functions of the partition's own rows), so the packing pass
  // parallelizes per partition with bit-identical results at any
  // thread count.
  const double* packed = database_->packed_features().data();
  ParallelOptions per_partition = options_.parallel;
  per_partition.grain = 1;
  Status st = ParallelFor(
      partitions_.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          FillPartition(packed, d, references_.RowPtr(i), &partitions_[i]);
        }
        return Status::OK();
      },
      per_partition);
  MOCEMG_RETURN_NOT_OK(st);
  RefreshDerived();
  return Status::OK();
}

FeatureIndex::CoarsePrep FeatureIndex::PrepCoarse(
    const double* query, double q_sq, size_t dim, const Partition& part,
    Scratch* scratch) const {
  // Clamp the query onto the partition's grid box, dimension by
  // dimension. For an out-of-box dimension the box edge q'_j lies
  // between q_j and every row value, so
  //   (q_j − r_j)² >= (q_j − q'_j)² + (q'_j − r_j)²
  // and summing gives ‖q − r‖² >= out² + ‖q' − r‖²: the out-of-box
  // energy is a certified additive term common to every row, and the
  // integer bound only has to separate the in-box part — where the
  // grid residual ‖q' − q̃‖ is at most half a step per dimension
  // instead of the full clamp distance.
  scratch->qclamp.resize(dim);
  scratch->qcodes.resize(dim);
  scratch->decoded.resize(dim);
  const double s = part.quant_scale;
  const double levels = part.quant_levels();
  for (size_t j = 0; j < dim; ++j) {
    const double lo = part.quant_offsets[j];
    const double hi = lo + levels * s;
    scratch->qclamp[j] = std::clamp(query[j], lo, hi);
  }
  CoarsePrep prep;
  prep.out_sq = SquaredL2Dispatched(query, scratch->qclamp.data(), dim);
  QuantizeQuery(scratch->qclamp.data(), dim, part.quant_offsets.data(), s,
                scratch->qcodes.data(), static_cast<uint32_t>(levels));
  DequantizeRow(scratch->qcodes.data(), dim, part.quant_offsets.data(), s,
                scratch->decoded.data());
  const double q_res_sq = SquaredL2Dispatched(scratch->qclamp.data(),
                                              scratch->decoded.data(), dim);
  prep.slack = QuantScanSlack(
      dim, q_sq, std::max(part.max_norm_sq, part.quant_box_sq));
  prep.q_res = std::sqrt(q_res_sq + prep.slack);
  prep.err = std::sqrt(part.quant_err_sq);
  return prep;
}

void FeatureIndex::SelectCoarse(const double* query, size_t dim,
                                const Partition& part, size_t start,
                                const uint32_t* ssd,
                                const CoarsePrep& prep,
                                BoundedTopK* top,
                                IndexQueryStats* stats) const {
  // Integer prune threshold, recomputed only when the k-th best
  // moves: with t_rem = √max(0, kth + 2·slack − out²) the remaining
  // in-box budget, prune iff scale·√D − q_res − err > t_rem, i.e.
  // D > T. The 1e-9 relative inflation dominates every ε-level
  // rounding in computing T itself (the slack terms already cover the
  // kernel-evaluated quantities' accumulation error).
  const double s = part.quant_scale;
  double last_worst = -1.0;
  double threshold = -1.0;
  for (size_t j = start; j < part.size(); ++j) {
    const double worst = top->worst();
    if (worst != last_worst) {
      last_worst = worst;
      if (s > 0.0) {
        const double t_rem = std::sqrt(
            std::max(0.0, worst + 2.0 * prep.slack - prep.out_sq));
        const double rhs = t_rem + prep.q_res + prep.err;
        threshold = (rhs / s) * (rhs / s) * (1.0 + 1e-9);
      } else {
        threshold = std::numeric_limits<double>::infinity();
      }
    }
    if (static_cast<double>(ssd[j - start]) > threshold) {
      ++stats->coarse_pruned;
      continue;
    }
    const double sq =
        SquaredL2Dispatched(query, part.block.data() + j * dim, dim);
    ++stats->distance_computations;
    top->Push(sq, part.record_indices[j]);
  }
}

void FeatureIndex::VisitCoarse(const double* query, double q_sq,
                               size_t dim, const Partition& part,
                               BoundedTopK* top, Scratch* scratch,
                               IndexQueryStats* stats) const {
  // Coarse tier. The prune needs a k-th best to compare against, so
  // first seed the heap with exact evaluations (only the very first
  // visited partition ever does this), then score the remaining rows
  // with the exact-integer code distance D = Σ(qc − c)² and discard
  // rows provably outside the k-th best via the two-hop triangle
  // inequality
  //   ‖q − r‖ ≥ scale·√D − ‖q − q̃‖ − ‖r − r̃‖
  // (q̃, r̃ the grid reconstructions; scale·√D = ‖q̃ − r̃‖ exactly in
  // real arithmetic since the grid step is uniform). All
  // floating-point roundings live in per-partition *scalars*: the
  // residual and the k-th best are inflated by the §11.2 slack, the
  // stored error was inflated at build, and the integer threshold T
  // gets a final relative margin — so the per-row test `D > T` can
  // only under-prune, never drop a row the exact kernels might still
  // rank into the top k.
  const size_t rows = part.size();
  size_t start = 0;
  while (!top->full() && start < rows) {
    const double sq =
        SquaredL2Dispatched(query, part.block.data() + start * dim, dim);
    ++stats->distance_computations;
    top->Push(sq, part.record_indices[start]);
    ++start;
  }
  if (start >= rows) return;
  const CoarsePrep prep = PrepCoarse(query, q_sq, dim, part, scratch);
  scratch->ssd.resize(max_partition_size_);
  if (part.quant_bits == 4) {
    const size_t stride = part.code_stride(dim);
    scratch->qpacked.resize(stride);
    PackNibbleRows(scratch->qcodes.data(), 1, dim, scratch->qpacked.data());
    Quantized4SsdOneToMany(scratch->qpacked.data(),
                           part.quant_codes.data() + start * stride,
                           rows - start, dim, scratch->ssd.data());
  } else {
    QuantizedSsdOneToMany(scratch->qcodes.data(),
                          part.quant_codes.data() + start * dim,
                          rows - start, dim, scratch->ssd.data());
  }
  stats->coarse_computations += rows - start;
  SelectCoarse(query, dim, part, start, scratch->ssd.data(), prep, top,
               stats);
}

void FeatureIndex::RefinePush(const double* query, size_t dim,
                              const Partition& part,
                              const std::vector<uint32_t>& ridx,
                              std::vector<double>* rdist,
                              BoundedTopK* top) const {
  const size_t n = ridx.size();
  if (n == 0) return;
  rdist->resize(n);
  SquaredL2Gather(query, part.block.data(), ridx.data(), n, dim,
                  rdist->data());
  for (size_t i = 0; i < n; ++i) {
    top->Push((*rdist)[i], part.record_indices[ridx[i]]);
  }
}

void FeatureIndex::PushTiled(const double* query, size_t dim,
                             const Partition& part, double* dist,
                             BoundedTopK* top) const {
  // Every row is scored exactly, so a row enters the heap iff BoundedTopK
  // keeps it; the test below only skips the pushes that would be
  // rejected anyway (a tie at the k-th best still goes in, and the
  // (distance, index) order decides).
  const size_t rows = part.size();
  SquaredL2Tiles(query, part.tiles.data(), rows, dim, dist);
  for (size_t j = 0; j < rows; ++j) {
    if (!(dist[j] > top->worst())) top->Push(dist[j], part.record_indices[j]);
  }
}

void FeatureIndex::ScanExact(const std::vector<double>& query,
                             double q_sq, BoundedTopK* top,
                             Scratch* scratch,
                             IndexQueryStats* stats) const {
  const size_t dim = query.size();
  const size_t p = partitions_.size();
  if (p == 0) return;
  IndexQueryStats& local = *stats;

  // Squared distance to each partition reference; visit closest-first
  // (the squared ordering equals the true-distance ordering). One
  // packed kernel call over the reference block, zero sqrts.
  scratch->ref_sq.resize(p);
  SquaredL2OneToMany(query.data(), references_.RowPtr(0), p, dim,
                     scratch->ref_sq.data());
  local.distance_computations += p;
  scratch->order.resize(p);
  for (size_t i = 0; i < p; ++i) {
    scratch->order[i] = {scratch->ref_sq[i], i};
  }
  std::sort(scratch->order.begin(), scratch->order.end());

  scratch->dist.resize(max_partition_size_);
  // The fp32 query copy is refilled lazily per ScanExact call — the
  // scratch is reused across the queries of a batch chunk, so a
  // size-based check would wrongly keep the previous query's floats.
  bool qf32_ready = false;
  float q_sq_f32 = 0.0f;
  // Candidates are kept and compared in *squared* distance space — the
  // per-record sqrt of the scan is deferred to the k reported hits.
  // The heap breaks distance ties toward the smaller record index,
  // the same rule as the linear scan (top_k.h).
  for (const auto& [ref_sq_dist, pi] : scratch->order) {
    const Partition& part = partitions_[pi];
    // Triangle inequality: every record r in the partition satisfies
    // d(q, r) >= d(q, ref) − radius. Evaluated sqrt-free by squaring
    // twice with sign handling: with b = d²(q, ref), r² = radius²,
    // t² = kth, the prune condition √b − r > t (t, r >= 0) is
    // equivalent to  b − r² − t² > 0  ∧  (b − r² − t²)² > 4·r²·t².
    const double kth = top->worst();
    const double inf = std::numeric_limits<double>::infinity();
    if (kth < inf) {
      const double gap = ref_sq_dist - part.radius_sq - kth;
      if (gap > 0.0 && gap * gap > 4.0 * part.radius_sq * kth) {
        ++local.partitions_pruned;
        continue;
      }
    }
    ++local.partitions_visited;
    const size_t rows = part.size();
    if (part.quantized()) {
      VisitCoarse(query.data(), q_sq, dim, part, top, scratch, &local);
      continue;
    }
    if (part.mirrored() && q_sq + part.max_norm_sq < kF32TierNormGate) {
      // fp32 tier: scan the float mirror with the fp32 dot-form
      // kernel, then re-evaluate through the double kernels every row
      // within the certified bound of the k-th best *at partition
      // entry*. The entry-time worst can only shrink while the
      // partition's rows are processed, so gating on it is a
      // conservative superset of gating on the evolving worst: a
      // pruned row provably cannot belong to the final top k (the
      // margin covers |ssd_f32 − ssd_f64| plus the f64 dot-form
      // error, §15.2) and reported hits stay bit-identical to the f64
      // tier's. Freezing the gate makes the survivor set independent of
      // push order, which lets the refine run as one blocked gather
      // kernel call; the §15.6 self-gate then shrinks the survivors
      // using the partition's own k-th smallest score, which recovers
      // the evolving gate's refine economy (the entry gate alone refines
      // the whole first partition of every query). A NaN fp32 score
      // compares false against both thresholds and falls through to
      // the double re-check, which is always safe.
      if (!qf32_ready) {
        scratch->query_f32.resize(dim);
        for (size_t j = 0; j < dim; ++j) {
          scratch->query_f32[j] = static_cast<float>(query[j]);
        }
        q_sq_f32 = SquaredNormF32(scratch->query_f32.data(), dim);
        qf32_ready = true;
      }
      scratch->dist_f32.resize(max_partition_size_);
      SquaredL2DotF32OneToMany(scratch->query_f32.data(), q_sq_f32,
                               part.block_f32.data(),
                               part.norms_f32.data(), rows, dim,
                               scratch->dist_f32.data());
      local.f32_scans += rows;
      const double margin = Float32DotFormErrorBound(
          dim, q_sq, part.max_norm_sq, part.mirror_max_abs);
      const bool entry_full = top->full();
      const double entry_worst = top->worst();
      scratch->ridx.clear();
      scratch->cand.clear();
      for (size_t j = 0; j < rows; ++j) {
        const double dj = static_cast<double>(scratch->dist_f32[j]);
        if (entry_full && dj > entry_worst + margin) {
          continue;
        }
        scratch->ridx.push_back(static_cast<uint32_t>(j));
        scratch->cand.push_back(dj);
      }
      SelfGateCandidates(top->k(), margin, &scratch->ridx,
                         &scratch->cand, &scratch->cand_sort);
      local.f32_refined += scratch->ridx.size();
      local.distance_computations += scratch->ridx.size();
      RefinePush(query.data(), dim, part, scratch->ridx, &scratch->rdist,
                 top);
      continue;
    }
    // f64 tier: the exact distance of every row from the tiled copy,
    // with rows in SIMD lanes — the linear scan's bits, so hits are
    // bit-identical to it (DESIGN.md §19).
    PushTiled(query.data(), dim, part, scratch->dist.data(), top);
    local.distance_computations += rows;
  }
}

void FeatureIndex::ScanCoarse(const std::vector<double>& query,
                              double q_sq, BoundedTopK* top,
                              double* bound, Scratch* scratch,
                              IndexQueryStats* stats) const {
  const size_t dim = query.size();
  IndexQueryStats& local = *stats;

  // Degraded mode trades the exact re-rank for bounded error: every
  // quantized partition is scored with the integer code distance only.
  // For a reported estimate est = out + s·√D the true distance obeys
  //   true ≤ ‖q − q'‖ + ‖q' − q̃‖ + ‖q̃ − r̃‖ + ‖r̃ − r‖
  //        ≤ out + q_res + s·√D + err            = est + (q_res + err)
  //   true ≥ ‖q' − r‖ ≥ ‖q̃ − r̃‖ − ‖q' − q̃‖ − ‖r − r̃‖
  //        ≥ s·√D − q_res − err                  = est − out − (q_res + err)
  // so |est − true| ≤ out + q_res + err, and the per-query certified
  // bound is the max of that scalar over the quantized partitions
  // visited (q_res and err already carry the §11.2 slack inflation).
  // Unquantized partitions are scanned with the dot-form kernel, whose
  // squared-space error margin adds √margin to the bound. Every
  // quantity here is a pure function of the partition that owns the
  // rows.
  scratch->ssd.resize(max_partition_size_);
  scratch->dist.resize(max_partition_size_);
  for (size_t pi = 0; pi < partitions_.size(); ++pi) {
    const Partition& part = partitions_[pi];
    const size_t rows = part.size();
    ++local.partitions_visited;
    if (part.quantized() && part.quant_scale > 0.0) {
      const double s = part.quant_scale;
      const CoarsePrep prep =
          PrepCoarse(query.data(), q_sq, dim, part, scratch);
      const double out = std::sqrt(prep.out_sq);
      if (part.quant_bits == 4) {
        scratch->qpacked.resize(part.code_stride(dim));
        PackNibbleRows(scratch->qcodes.data(), 1, dim,
                       scratch->qpacked.data());
        Quantized4SsdOneToMany(scratch->qpacked.data(),
                               part.quant_codes.data(), rows, dim,
                               scratch->ssd.data());
      } else {
        QuantizedSsdOneToMany(scratch->qcodes.data(), part.quant_codes.data(),
                              rows, dim, scratch->ssd.data());
      }
      local.coarse_computations += rows;
      for (size_t j = 0; j < rows; ++j) {
        const double est =
            out + s * std::sqrt(static_cast<double>(scratch->ssd[j]));
        top->Push(est, part.record_indices[j]);
      }
      *bound = std::max(*bound, out + prep.q_res + prep.err);
    } else {
      // Small/unquantized partition: dot-form scan, no exact re-check.
      SquaredL2DotOneToMany(query.data(), q_sq, part.block.data(),
                            part.norms_sq.data(), rows, dim,
                            scratch->dist.data());
      local.distance_computations += rows;
      const double margin =
          DotFormErrorBound(dim, q_sq, part.max_norm_sq);
      for (size_t j = 0; j < rows; ++j) {
        top->Push(std::sqrt(std::max(0.0, scratch->dist[j])),
                  part.record_indices[j]);
      }
      *bound = std::max(*bound, std::sqrt(margin));
    }
  }
}

Result<FeatureIndex> FeatureIndex::Build(
    const MotionDatabase* database, const FeatureIndexOptions& options) {
  if (database == nullptr) {
    return Status::InvalidArgument("null database");
  }
  FeatureIndex index;
  index.database_ = database;
  index.options_ = options;
  MOCEMG_RETURN_NOT_OK(index.Rebuild());
  return index;
}

Status FeatureIndex::Rebuild() {
  if (database_ == nullptr || database_->empty()) {
    return Status::FailedPrecondition("database is empty");
  }
  // Resolve the precision once per build and store the concrete value
  // back, so snapshots and later refreshes see f64/f32, never
  // "default" (env precedence: env < options, DESIGN.md §15.4).
  options_.exact_precision = ResolveExactPrecision(options_.exact_precision);
  MOCEMG_ASSIGN_OR_RETURN(IndexLayout layout,
                          ComputeIndexLayout(*database_, options_));
  MOCEMG_RETURN_NOT_OK(
      Pack(std::move(layout.references), layout.members));
  built_epoch_ = database_->epoch();
  return Status::OK();
}

Status FeatureIndex::ApplyUpdate(size_t record_index) {
  if (database_ == nullptr || partitions_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (database_->size() != record_to_partition_.size()) {
    return Status::FailedPrecondition(
        "the record set changed since the last Rebuild; ApplyUpdate only "
        "absorbs UpdateFeature mutations — call Rebuild()");
  }
  if (record_index >= record_to_partition_.size()) {
    return Status::InvalidArgument("record index out of range");
  }
  if (database_->epoch() != built_epoch_ + 1) {
    return Status::FailedPrecondition(
        "ApplyUpdate must run once, in order, after each UpdateFeature "
        "(database epoch " + std::to_string(database_->epoch()) +
        ", last applied " + std::to_string(built_epoch_) + ")");
  }
  // Membership and reference stay; the partition's rows, norms,
  // radius and codes are re-derived from the database's current rows.
  const size_t p = record_to_partition_[record_index];
  FillPartition(database_->packed_features().data(),
                database_->feature_dimension(), references_.RowPtr(p),
                &partitions_[p]);
  built_epoch_ = database_->epoch();
  return Status::OK();
}

Status FeatureIndex::ValidateQuery(const std::vector<double>& query,
                                   size_t k) const {
  if (database_ == nullptr || partitions_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (database_->epoch() != built_epoch_) {
    return Status::FailedPrecondition(
        "index is stale: the database mutated (epoch " +
        std::to_string(database_->epoch()) + ") after the index was "
        "built (epoch " + std::to_string(built_epoch_) +
        "); call Rebuild()");
  }
  if (query.size() != database_->feature_dimension()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  for (double v : query) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "query feature contains a non-finite value");
    }
  }
  return Status::OK();
}

Status FeatureIndex::ValidateBatch(
    const std::vector<std::vector<double>>& queries, size_t k) const {
  for (size_t q = 0; q < queries.size(); ++q) {
    Status st = ValidateQuery(queries[q], k);
    if (!st.ok()) {
      return st.WithContext("while answering batch query " +
                            std::to_string(q));
    }
  }
  return Status::OK();
}

std::vector<QueryHit> FeatureIndex::ExactHits(
    const std::vector<double>& query, size_t k, Scratch* scratch,
    IndexQueryStats* stats) const {
  const double q_sq = SquaredNorm(query.data(), query.size());
  BoundedTopK& top = scratch->top;
  top.Reset(std::min(k, database_->size()));
  ScanExact(query, q_sq, &top, scratch, stats);
  top.ExtractSorted(&scratch->entries);
  std::vector<QueryHit> out(scratch->entries.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].record_index = scratch->entries[i].second;
    out[i].distance = std::sqrt(scratch->entries[i].first);
  }
  return out;
}

std::vector<QueryHit> FeatureIndex::CoarseHits(
    const std::vector<double>& query, size_t k, double* bound,
    Scratch* scratch, IndexQueryStats* stats) const {
  const double q_sq = SquaredNorm(query.data(), query.size());
  BoundedTopK& top = scratch->top;
  top.Reset(std::min(k, database_->size()));
  ScanCoarse(query, q_sq, &top, bound, scratch, stats);
  top.ExtractSorted(&scratch->entries);
  std::vector<QueryHit> out(scratch->entries.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].record_index = scratch->entries[i].second;
    out[i].distance = scratch->entries[i].first;  // already distance space
  }
  return out;
}

Result<std::vector<QueryHit>> FeatureIndex::NearestNeighbors(
    const std::vector<double>& query, size_t k,
    IndexQueryStats* stats) const {
  MOCEMG_RETURN_NOT_OK(ValidateQuery(query, k));
  Scratch scratch;
  IndexQueryStats local;
  std::vector<QueryHit> out = ExactHits(query, k, &scratch, &local);
  if (stats != nullptr) *stats = local;
  return out;
}

Result<std::vector<QueryHit>> FeatureIndex::CoarseNearestNeighbors(
    const std::vector<double>& query, size_t k, double* error_bound,
    IndexQueryStats* stats) const {
  MOCEMG_RETURN_NOT_OK(ValidateQuery(query, k));
  Scratch scratch;
  IndexQueryStats local;
  double bound = 0.0;
  std::vector<QueryHit> out =
      CoarseHits(query, k, &bound, &scratch, &local);
  if (error_bound != nullptr) *error_bound = bound;
  if (stats != nullptr) *stats = local;
  return out;
}

namespace {

void AccumulateStats(const IndexQueryStats& from, IndexQueryStats* into) {
  into->distance_computations += from.distance_computations;
  into->partitions_visited += from.partitions_visited;
  into->partitions_pruned += from.partitions_pruned;
  into->coarse_computations += from.coarse_computations;
  into->coarse_pruned += from.coarse_pruned;
  into->f32_scans += from.f32_scans;
  into->f32_refined += from.f32_refined;
}

// The batch entry points' shared loop: runs scan(q, scratch, chunk_stats)
// for every query inside ParallelFor, with one scratch and one stats
// slot per chunk, then combines the stats in ascending chunk order —
// the fixed-order combine every parallel reduction uses (DESIGN.md
// §8.1), so the total is identical at any thread count.
template <typename Scratch, typename Scan>
Status ScanBatch(size_t num_queries, const ParallelOptions& parallel,
                 IndexQueryStats* stats, const Scan& scan) {
  std::vector<IndexQueryStats> per_chunk(
      ParallelNumChunks(num_queries, parallel.grain));
  MOCEMG_RETURN_NOT_OK(ParallelFor(
      num_queries,
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        Scratch scratch;
        for (size_t q = begin; q < end; ++q) {
          scan(q, &scratch, &per_chunk[chunk]);
        }
        return Status::OK();
      },
      parallel));
  if (stats != nullptr) {
    IndexQueryStats total;
    for (const IndexQueryStats& chunk : per_chunk) {
      AccumulateStats(chunk, &total);
    }
    *stats = total;
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::vector<QueryHit>>>
FeatureIndex::BatchNearestNeighbors(
    const std::vector<std::vector<double>>& queries, size_t k,
    IndexQueryStats* stats,
    const ParallelOptions* parallel_override) const {
  MOCEMG_RETURN_NOT_OK(ValidateBatch(queries, k));
  std::vector<std::vector<QueryHit>> results(queries.size());
  MOCEMG_RETURN_NOT_OK(ScanBatch<Scratch>(
      queries.size(),
      parallel_override != nullptr ? *parallel_override : options_.parallel,
      stats, [&](size_t q, Scratch* scratch, IndexQueryStats* chunk_stats) {
        results[q] = ExactHits(queries[q], k, scratch, chunk_stats);
      }));
  return results;
}

Result<std::vector<std::vector<QueryHit>>>
FeatureIndex::BatchCoarseNearestNeighbors(
    const std::vector<std::vector<double>>& queries, size_t k,
    std::vector<double>* error_bounds, IndexQueryStats* stats,
    const ParallelOptions* parallel_override) const {
  MOCEMG_RETURN_NOT_OK(ValidateBatch(queries, k));
  std::vector<std::vector<QueryHit>> results(queries.size());
  std::vector<double> bounds(queries.size(), 0.0);
  MOCEMG_RETURN_NOT_OK(ScanBatch<Scratch>(
      queries.size(),
      parallel_override != nullptr ? *parallel_override : options_.parallel,
      stats, [&](size_t q, Scratch* scratch, IndexQueryStats* chunk_stats) {
        results[q] =
            CoarseHits(queries[q], k, &bounds[q], scratch, chunk_stats);
      }));
  if (error_bounds != nullptr) *error_bounds = std::move(bounds);
  return results;
}

}  // namespace mocemg
