// Microbenchmarks: retrieval scaling — linear kNN scan vs the
// cluster-pruned index over growing database sizes, at the final-feature
// dimensionality of the paper's configuration (2c = 30 for c = 15).

#include <benchmark/benchmark.h>

#include <map>

#include "core/classifier.h"
#include "db/feature_index.h"
#include "db/motion_database.h"
#include "eval/protocols.h"
#include "synth/dataset.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Clustered final-feature-like records (sparse non-negative blocks).
MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    std::vector<double> f(dim, 0.0);
    // Each class activates its own few clusters, like real final
    // features.
    Rng cls(seed ^ (r.label * 0x9E37ULL));
    for (int k = 0; k < 4; ++k) {
      const size_t at = static_cast<size_t>(cls.NextBelow(dim));
      f[at] = 0.4 + 0.5 * rng.NextDouble();
    }
    r.feature = std::move(f);
    MOCEMG_CHECK_OK(db.Insert(std::move(r)));
  }
  return db;
}

std::vector<double> MakeQuery(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(dim, 0.0);
  for (int k = 0; k < 4; ++k) {
    q[rng.NextBelow(dim)] = rng.NextDouble();
  }
  return q;
}

void BM_LinearKnn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MotionDatabase db = MakeDb(n, 30, 3);
  const auto query = MakeQuery(30, 4);
  for (auto _ : state) {
    auto hits = db.NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_LinearKnn)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IndexedKnn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MotionDatabase db = MakeDb(n, 30, 3);
  auto index = FeatureIndex::Build(&db);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(30, 4);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedKnn)->Arg(100)->Arg(1000)->Arg(10000);

// Dimension sweep at fixed n: the paper-typical final-feature width
// (2c = 30) up to 8x wider, where the packed scan's advantage over
// pointer-chased AoS rows grows with the row length. Read it alongside
// the paired kernel-vs-scalar families of micro_distance.
void BM_IndexedKnnDim(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 4000;
  MotionDatabase db = MakeDb(n, dim, 3);
  auto index = FeatureIndex::Build(&db);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(dim, 4);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedKnnDim)->Arg(30)->Arg(64)->Arg(128)->Arg(240);

// Paired quantized-tier family: mode 0 scans with the
// exact tiled f64 scan alone (quantized_scan off), mode 1 adds the int8
// coarse tier. Same binary, same pass, so the per-pass ratio cancels
// host load. The partition count is pinned low (8 over 20000 records,
// ~2500 rows each) so the in-partition scan — the stage the coarse
// tier accelerates — dominates per-query time; with the √N default the
// reference pass and partition-level triangle prune leave almost no
// scan work to measure. The dimension sweep covers the paper's
// final-feature width up to 4x wider, where the 1-byte/dim coarse scan
// saves the most memory traffic.
void BM_QuantIndexedKnnDim(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool quantized = state.range(1) == 1;
  const size_t n = 20000;
  static std::map<size_t, MotionDatabase>* dbs =
      new std::map<size_t, MotionDatabase>();
  if (dbs->find(dim) == dbs->end()) {
    dbs->emplace(dim, MakeDb(n, dim, 3));
  }
  const MotionDatabase& db = dbs->at(dim);
  FeatureIndexOptions opts;
  opts.num_partitions = 8;
  opts.quantized_scan = quantized;
  auto index = FeatureIndex::Build(&db, opts);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(dim, 4);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_QuantIndexedKnnDim)
    ->Args({30, 0})->Args({30, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({128, 0})->Args({128, 1});

// Paired fp32-exact-tier family: mode 0 answers
// through the f64 tiled exact scan, mode 1 through the certified fp32
// mirror scan with error-bound-gated double refine. Same binary, same
// pass, identical (bit-for-bit) answers — the ratio is the end-to-end
// indexed-kNN win from halving scan bandwidth. Quantization stays off
// on both sides so the exact tier is the stage measured, and the
// partition count is pinned low so the in-partition scan dominates.
void BM_IndexedKnnF32(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool f32 = state.range(1) == 1;
  const size_t n = 20000;
  static std::map<size_t, MotionDatabase>* dbs =
      new std::map<size_t, MotionDatabase>();
  if (dbs->find(dim) == dbs->end()) {
    dbs->emplace(dim, MakeDb(n, dim, 5));
  }
  const MotionDatabase& db = dbs->at(dim);
  FeatureIndexOptions opts;
  opts.num_partitions = 8;
  opts.quantized_scan = false;
  opts.exact_precision = f32 ? ExactPrecision::kF32 : ExactPrecision::kF64;
  auto index = FeatureIndex::Build(&db, opts);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(dim, 6);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedKnnF32)
    ->Args({30, 0})->Args({30, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({128, 0})->Args({128, 1})
    ->Args({240, 0})->Args({240, 1});

void BM_IndexBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MotionDatabase db = MakeDb(n, 30, 3);
  for (auto _ : state) {
    auto index = FeatureIndex::Build(&db);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuild)->Arg(1000);

// The served_knn shape (e2ebench/): a FeatureIndex at default options
// over 2,004 real final vectors, the featurized synthetic right-hand
// captures of seed 20070416 (334 per class), from a classifier trained
// at the paper's benchmark setting (seed 20070415, c = 15, 100/50 ms).
// √N gives 45 partitions of ~45 rows, none coded, so every visit is an
// f64-tier scan. Queries are the final vectors of 256 held-out
// captures. Building it takes about 2 s, paid once by the first family
// that runs.
struct ServedShape {
  MotionDatabase db;
  FeatureIndex index;
  std::vector<std::vector<double>> queries;
};

const ServedShape& Served() {
  static const ServedShape* shape = [] {
    constexpr uint64_t kSeed = 20070415;
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 10;
    lab.seed = kSeed;
    auto training = GenerateDataset(lab);
    MOCEMG_CHECK_OK(training.status());
    ClassifierOptions opts;
    opts.features.window_ms = 100.0;
    opts.features.hop_ms = 50.0;
    opts.features.parallel.max_threads = 1;
    opts.fcm.num_clusters = 15;
    opts.fcm.seed = kSeed ^ 0xC0FFEE;
    opts.fcm.max_iterations = 80;
    opts.fcm.epsilon = 1e-4;
    auto clf =
        MotionClassifier::Train(ToLabeledMotions(*std::move(training)), opts);
    MOCEMG_CHECK_OK(clf.status());
    const auto featurize = [&](const DatasetOptions& at, size_t cls,
                               size_t trial, uint64_t seed) {
      std::vector<CapturedMotion> one;
      auto capture = GenerateTrial(at, cls, trial, seed);
      MOCEMG_CHECK_OK(capture.status());
      one.push_back(*std::move(capture));
      const LabeledMotion m = ToLabeledMotions(std::move(one))[0];
      auto feature = clf->Featurize(m.mocap, m.emg);
      MOCEMG_CHECK_OK(feature.status());
      return std::make_pair(m, *std::move(feature));
    };
    auto* out = new ServedShape;
    DatasetOptions served = lab;
    served.seed = kSeed + 1;
    served.trials_per_class = 334;
    const size_t classes = NumClassesForLimb(lab.limb);
    Rng seeder(served.seed);
    for (size_t i = 0; i < classes * served.trials_per_class; ++i) {
      const size_t cls = i / served.trials_per_class;
      auto [m, feature] = featurize(served, cls, i % served.trials_per_class,
                                    seeder.NextUint64());
      MotionRecord rec;
      rec.name = m.label_name + "/" + std::to_string(i);
      rec.label = m.label;
      rec.label_name = m.label_name;
      rec.feature = std::move(feature);
      MOCEMG_CHECK_OK(out->db.Insert(std::move(rec)));
    }
    auto index = FeatureIndex::Build(&out->db);
    MOCEMG_CHECK_OK(index.status());
    out->index = *std::move(index);
    Rng held_out(kSeed * 0x9E3779B97F4A7C15ULL + 5);
    for (size_t i = 0; i < 256; ++i) {
      out->queries.push_back(
          featurize(lab, i % classes, 1000 + i, held_out.NextUint64())
              .second);
    }
    return out;
  }();
  return *shape;
}

// Consecutive batches of `batch` served-shape queries, cycling the pool.
std::vector<std::vector<std::vector<double>>> ServedBatches(size_t batch) {
  const std::vector<std::vector<double>>& pool = Served().queries;
  std::vector<std::vector<std::vector<double>>> batches(
      pool.size() / batch);
  for (size_t b = 0; b < batches.size(); ++b) {
    batches[b].assign(pool.begin() + static_cast<ptrdiff_t>(b * batch),
                      pool.begin() + static_cast<ptrdiff_t>((b + 1) * batch));
  }
  return batches;
}

// The per-query path over a batch of `batch` queries, k = 5 as served.
// Items are queries, so 1 / items_per_second is the time per query.
void BM_ServedKnnLoop(benchmark::State& state) {
  const ServedShape& s = Served();
  const auto batches = ServedBatches(static_cast<size_t>(state.range(0)));
  size_t next = 0;
  for (auto _ : state) {
    for (const std::vector<double>& query : batches[next]) {
      auto hits = s.index.NearestNeighbors(query, 5);
      MOCEMG_CHECK_OK(hits.status());
      benchmark::DoNotOptimize(hits);
    }
    next = next + 1 == batches.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * state.range(0)));
}
BENCHMARK(BM_ServedKnnLoop)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

// One BatchNearestNeighbors call per batch, on one thread (the
// served_knn server's budget): the call the query server makes.
void BM_ServedKnnBatchCall(benchmark::State& state) {
  const ServedShape& s = Served();
  const auto batches = ServedBatches(static_cast<size_t>(state.range(0)));
  ParallelOptions one_thread;
  one_thread.max_threads = 1;
  size_t next = 0;
  for (auto _ : state) {
    auto hits =
        s.index.BatchNearestNeighbors(batches[next], 5, nullptr, &one_thread);
    MOCEMG_CHECK_OK(hits.status());
    benchmark::DoNotOptimize(hits);
    next = next + 1 == batches.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * state.range(0)));
}
BENCHMARK(BM_ServedKnnBatchCall)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
