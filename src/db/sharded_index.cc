#include "db/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/distance_kernels.h"
#include "util/macros.h"
#include "util/top_k.h"

namespace mocemg {
namespace {

void AccumulateShardStats(const IndexQueryStats& from,
                          IndexQueryStats* into) {
  into->distance_computations += from.distance_computations;
  into->partitions_visited += from.partitions_visited;
  into->partitions_pruned += from.partitions_pruned;
  into->coarse_computations += from.coarse_computations;
  into->coarse_pruned += from.coarse_pruned;
  into->f32_scans += from.f32_scans;
  into->f32_refined += from.f32_refined;
}

}  // namespace

Result<ShardedFeatureIndex> ShardedFeatureIndex::Build(
    const MotionDatabase* database, const ShardedIndexOptions& options) {
  if (database == nullptr) {
    return Status::InvalidArgument("null database");
  }
  ShardedFeatureIndex index;
  index.database_ = database;
  index.options_ = options;
  MOCEMG_RETURN_NOT_OK(index.Rebuild());
  return index;
}

Status ShardedFeatureIndex::Rebuild() {
  if (database_ == nullptr || database_->empty()) {
    return Status::FailedPrecondition("database is empty");
  }
  // Same resolve-and-store contract as FeatureIndex::Rebuild: shards
  // pack (and snapshots persist) a concrete f64/f32, never "default".
  options_.index.exact_precision =
      ResolveExactPrecision(options_.index.exact_precision);
  MOCEMG_ASSIGN_OR_RETURN(IndexLayout layout,
                          ComputeIndexLayout(*database_, options_.index));
  const size_t num_parts = layout.members.size();
  if (num_parts >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("partition count overflows the shard map");
  }
  size_t num_shards = options_.num_shards;
  if (num_shards == 0) {
    num_shards = std::max<size_t>(1, std::min<size_t>(4, num_parts));
  }
  const size_t n = database_->size();
  const size_t d = database_->feature_dimension();
  record_to_partition_.assign(n, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    for (size_t rec : layout.members[p]) {
      record_to_partition_[rec] = static_cast<uint32_t>(p);
    }
  }
  global_references_ = std::move(layout.references);
  // Shard s owns global partitions {p : p mod N == s} in ascending
  // order — a pure function of (partition id, shard count), so the
  // snapshot manifest never has to store the mapping.
  shards_.assign(num_shards, IndexPartitionSet{});
  for (size_t s = 0; s < num_shards; ++s) {
    Matrix refs(0, d);
    std::vector<std::vector<size_t>> members;
    for (size_t p = s; p < num_parts; p += num_shards) {
      MOCEMG_RETURN_NOT_OK(
          refs.AppendRows(global_references_.RowSlice(p, p + 1)));
      members.push_back(layout.members[p]);
    }
    MOCEMG_RETURN_NOT_OK(
        shards_[s].Pack(*database_, refs, members, options_.index));
  }
  shard_epochs_.assign(num_shards, database_->epoch());
  applied_epoch_ = database_->epoch();
  return Status::OK();
}

Status ShardedFeatureIndex::ApplyUpdate(size_t record_index) {
  if (database_ == nullptr || shards_.empty()) {
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
  if (database_->epoch() != applied_epoch_ + 1) {
    return Status::FailedPrecondition(
        "ApplyUpdate must run once, in order, after each UpdateFeature "
        "(database epoch " + std::to_string(database_->epoch()) +
        ", last applied " + std::to_string(applied_epoch_) + ")");
  }
  const size_t p = record_to_partition_[record_index];
  const size_t shard = p % shards_.size();
  const size_t local = p / shards_.size();
  MOCEMG_RETURN_NOT_OK(
      shards_[shard].RefreshPartition(*database_, local, options_.index));
  applied_epoch_ = database_->epoch();
  shard_epochs_[shard] = applied_epoch_;
  return Status::OK();
}

Status ShardedFeatureIndex::ValidateQuery(const std::vector<double>& query,
                                          size_t k) const {
  if (database_ == nullptr || shards_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (database_->epoch() != applied_epoch_) {
    return Status::FailedPrecondition(
        "index is stale: the database mutated (epoch " +
        std::to_string(database_->epoch()) + ") past the last applied "
        "epoch " + std::to_string(applied_epoch_) +
        "; call ApplyUpdate() or Rebuild()");
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

Result<std::vector<QueryHit>> ShardedFeatureIndex::NearestNeighbors(
    const std::vector<double>& query, size_t k, IndexQueryStats* stats,
    std::vector<IndexQueryStats>* per_shard) const {
  MOCEMG_RETURN_NOT_OK(ValidateQuery(query, k));
  const size_t kk = std::min(k, database_->size());
  const double q_sq = SquaredNorm(query.data(), query.size());
  const size_t num_shards = shards_.size();
  std::vector<std::vector<TopKEntry>> lists(num_shards);
  std::vector<IndexQueryStats> shard_stats(num_shards);
  IndexPartitionSet::Scratch scratch;
  for (size_t s = 0; s < num_shards; ++s) {
    scratch.top.Reset(kk);
    shards_[s].ScanExact(query, q_sq, &scratch.top, &scratch,
                         &shard_stats[s]);
    scratch.top.ExtractSorted(&lists[s]);
  }
  BoundedTopK merged(kk);
  MergeSortedTopK(lists, &merged);
  std::vector<TopKEntry> entries;
  merged.ExtractSorted(&entries);
  std::vector<QueryHit> out(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    out[i].record_index = entries[i].second;
    out[i].distance = std::sqrt(entries[i].first);
  }
  if (stats != nullptr) {
    IndexQueryStats total;
    for (const IndexQueryStats& s : shard_stats) {
      total.distance_computations += s.distance_computations;
      total.partitions_visited += s.partitions_visited;
      total.partitions_pruned += s.partitions_pruned;
      total.coarse_computations += s.coarse_computations;
      total.coarse_pruned += s.coarse_pruned;
      total.f32_scans += s.f32_scans;
      total.f32_refined += s.f32_refined;
    }
    *stats = total;
  }
  if (per_shard != nullptr) *per_shard = std::move(shard_stats);
  return out;
}

Result<std::vector<std::vector<QueryHit>>>
ShardedFeatureIndex::BatchNearestNeighbors(
    const std::vector<std::vector<double>>& queries, size_t k,
    IndexQueryStats* stats, std::vector<IndexQueryStats>* per_shard,
    const ParallelOptions* parallel_override) const {
  for (size_t q = 0; q < queries.size(); ++q) {
    Status st = ValidateQuery(queries[q], k);
    if (!st.ok()) {
      return st.WithContext("while answering batch query " +
                            std::to_string(q));
    }
  }
  const size_t num_shards = shards_.size();
  const size_t nq = queries.size();
  const size_t kk = std::min(k, database_->size());
  const ParallelOptions& parallel =
      parallel_override != nullptr ? *parallel_override
                                   : options_.index.parallel;
  // Scatter: one task per (query × shard) cell, cell = q·S + shard,
  // each running one shard's per-query scan into its own heap. Every
  // cell writes only its own (query, shard) list slot, so the grid
  // parallelizes freely; the per-query gather below runs in fixed
  // shard order, keeping results and stats thread-invariant.
  const size_t cells = nq * num_shards;
  std::vector<std::vector<TopKEntry>> lists(cells);
  std::vector<IndexQueryStats> cell_stats(cells);
  std::vector<double> q_sq(nq);
  for (size_t q = 0; q < nq; ++q) {
    q_sq[q] = SquaredNorm(queries[q].data(), queries[q].size());
  }
  Status st = ParallelFor(
      cells,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        IndexPartitionSet::Scratch scratch;
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t q = cell / num_shards;
          scratch.top.Reset(kk);
          shards_[cell % num_shards].ScanExact(queries[q], q_sq[q],
                                               &scratch.top, &scratch,
                                               &cell_stats[cell]);
          scratch.top.ExtractSorted(&lists[cell]);
        }
        return Status::OK();
      },
      parallel);
  MOCEMG_RETURN_NOT_OK(st);
  // Gather: merge each query's shard lists in shard order.
  std::vector<std::vector<QueryHit>> results(nq);
  std::vector<std::vector<TopKEntry>> row(num_shards);
  BoundedTopK merged;
  std::vector<TopKEntry> entries;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t s = 0; s < num_shards; ++s) {
      row[s] = std::move(lists[q * num_shards + s]);
    }
    merged.Reset(kk);
    MergeSortedTopK(row, &merged);
    merged.ExtractSorted(&entries);
    results[q].resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      results[q][i].record_index = entries[i].second;
      results[q][i].distance = std::sqrt(entries[i].first);
    }
  }
  // Stats fold in fixed (query, shard) cell order — identical at any
  // thread count.
  if (stats != nullptr || per_shard != nullptr) {
    IndexQueryStats total;
    std::vector<IndexQueryStats> by_shard(num_shards);
    for (size_t cell = 0; cell < cells; ++cell) {
      AccumulateShardStats(cell_stats[cell], &total);
      AccumulateShardStats(cell_stats[cell], &by_shard[cell % num_shards]);
    }
    if (stats != nullptr) *stats = total;
    if (per_shard != nullptr) *per_shard = std::move(by_shard);
  }
  return results;
}

Result<std::vector<std::vector<QueryHit>>>
ShardedFeatureIndex::BatchCoarseNearestNeighbors(
    const std::vector<std::vector<double>>& queries, size_t k,
    std::vector<double>* error_bounds, IndexQueryStats* stats,
    std::vector<IndexQueryStats>* per_shard,
    const ParallelOptions* parallel_override) const {
  for (size_t q = 0; q < queries.size(); ++q) {
    Status st = ValidateQuery(queries[q], k);
    if (!st.ok()) {
      return st.WithContext("while answering batch query " +
                            std::to_string(q));
    }
  }
  const size_t num_shards = shards_.size();
  const size_t nq = queries.size();
  const size_t kk = std::min(k, database_->size());
  const ParallelOptions& parallel =
      parallel_override != nullptr ? *parallel_override
                                   : options_.index.parallel;
  // The same (query × shard) grid as BatchNearestNeighbors; each cell
  // also keeps its shard's certified bound, which the gather maxes
  // across shards per query, exactly like the per-query scatter-gather.
  const size_t cells = nq * num_shards;
  std::vector<std::vector<TopKEntry>> lists(cells);
  std::vector<IndexQueryStats> cell_stats(cells);
  std::vector<double> shard_bounds(cells, 0.0);
  std::vector<double> q_sq(nq);
  for (size_t q = 0; q < nq; ++q) {
    q_sq[q] = SquaredNorm(queries[q].data(), queries[q].size());
  }
  Status st = ParallelFor(
      cells,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        IndexPartitionSet::Scratch scratch;
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t q = cell / num_shards;
          scratch.top.Reset(kk);
          shards_[cell % num_shards].ScanCoarse(
              queries[q], q_sq[q], &scratch.top, &shard_bounds[cell],
              &scratch, &cell_stats[cell]);
          scratch.top.ExtractSorted(&lists[cell]);
        }
        return Status::OK();
      },
      parallel);
  MOCEMG_RETURN_NOT_OK(st);
  std::vector<std::vector<QueryHit>> results(nq);
  if (error_bounds != nullptr) error_bounds->assign(nq, 0.0);
  std::vector<std::vector<TopKEntry>> row(num_shards);
  BoundedTopK merged;
  std::vector<TopKEntry> entries;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t s = 0; s < num_shards; ++s) {
      row[s] = std::move(lists[q * num_shards + s]);
    }
    merged.Reset(kk);
    MergeSortedTopK(row, &merged);
    merged.ExtractSorted(&entries);
    results[q].resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      results[q][i].record_index = entries[i].second;
      results[q][i].distance = entries[i].first;  // distance space
    }
    if (error_bounds != nullptr) {
      double bound = 0.0;
      for (size_t s = 0; s < num_shards; ++s) {
        bound = std::max(bound, shard_bounds[q * num_shards + s]);
      }
      (*error_bounds)[q] = bound;
    }
  }
  if (stats != nullptr || per_shard != nullptr) {
    IndexQueryStats total;
    std::vector<IndexQueryStats> by_shard(num_shards);
    for (size_t cell = 0; cell < cells; ++cell) {
      AccumulateShardStats(cell_stats[cell], &total);
      AccumulateShardStats(cell_stats[cell], &by_shard[cell % num_shards]);
    }
    if (stats != nullptr) *stats = total;
    if (per_shard != nullptr) *per_shard = std::move(by_shard);
  }
  return results;
}

Result<std::vector<QueryHit>> ShardedFeatureIndex::CoarseNearestNeighbors(
    const std::vector<double>& query, size_t k, double* error_bound,
    IndexQueryStats* stats, std::vector<IndexQueryStats>* per_shard) const {
  MOCEMG_RETURN_NOT_OK(ValidateQuery(query, k));
  const size_t kk = std::min(k, database_->size());
  const double q_sq = SquaredNorm(query.data(), query.size());
  const size_t num_shards = shards_.size();
  std::vector<std::vector<TopKEntry>> lists(num_shards);
  std::vector<IndexQueryStats> shard_stats(num_shards);
  // The coarse scan has no cross-shard pruning (every row is scored),
  // so the per-shard bound maxes to exactly the single-set bound.
  double bound = 0.0;
  IndexPartitionSet::Scratch scratch;
  for (size_t s = 0; s < num_shards; ++s) {
    scratch.top.Reset(kk);
    double shard_bound = 0.0;
    shards_[s].ScanCoarse(query, q_sq, &scratch.top, &shard_bound,
                          &scratch, &shard_stats[s]);
    bound = std::max(bound, shard_bound);
    scratch.top.ExtractSorted(&lists[s]);
  }
  BoundedTopK merged(kk);
  MergeSortedTopK(lists, &merged);
  std::vector<TopKEntry> entries;
  merged.ExtractSorted(&entries);
  std::vector<QueryHit> out(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    out[i].record_index = entries[i].second;
    out[i].distance = entries[i].first;  // already in distance space
  }
  if (error_bound != nullptr) *error_bound = bound;
  if (stats != nullptr) {
    IndexQueryStats total;
    for (const IndexQueryStats& s : shard_stats) {
      total.distance_computations += s.distance_computations;
      total.partitions_visited += s.partitions_visited;
      total.partitions_pruned += s.partitions_pruned;
      total.coarse_computations += s.coarse_computations;
      total.coarse_pruned += s.coarse_pruned;
      total.f32_scans += s.f32_scans;
      total.f32_refined += s.f32_refined;
    }
    *stats = total;
  }
  if (per_shard != nullptr) *per_shard = std::move(shard_stats);
  return out;
}

Result<size_t> ShardedFeatureIndex::ShardOfRecord(size_t record_index) const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (record_index >= record_to_partition_.size()) {
    return Status::InvalidArgument("record index out of range");
  }
  return static_cast<size_t>(record_to_partition_[record_index]) %
         shards_.size();
}

bool ShardedFeatureIndex::ShardAllBeyond(size_t shard,
                                         const std::vector<double>& query,
                                         double kth) const {
  if (shard >= shards_.size()) return false;
  return shards_[shard].AllBeyond(query, kth);
}

size_t ShardedFeatureIndex::num_partitions() const {
  size_t total = 0;
  for (const IndexPartitionSet& s : shards_) total += s.num_partitions();
  return total;
}

bool ShardedFeatureIndex::has_quantized_tier() const {
  for (const IndexPartitionSet& s : shards_) {
    if (s.has_quantized_tier()) return true;
  }
  return false;
}

}  // namespace mocemg
