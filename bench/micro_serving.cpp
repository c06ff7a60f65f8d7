// Microbenchmarks: the batched query-serving front end vs per-request
// exact scans — the §11.3 serving path measured as paired families, so
// comparing the two modes of one family within a run cancels host load.
//
//   BM_ServedKnnBatch/<mode>   mode 0: per-request linear scan loop
//                              mode 1: QueryServer micro-batch through
//                                      the quantized index, cache OFF —
//                                      isolates batching + index.
//   BM_ServedKnnCached/<mode>  same pairing over a workload where every
//                              query repeats, with the cache ON — the
//                              steady-state hot-working-set regime the
//                              result cache is for.
//   BM_ServedKnnRobust/<mode>  mode 0: PR 5 serving path, no robustness
//                                      features configured.
//                              mode 1: the same path with the §12
//                                      robustness machinery armed but
//                                      never firing (deadline far in the
//                                      future, watermark above any
//                                      reachable depth) — measures the
//                                      overhead of deadline stamping,
//                                      expiry sweeps, and the watermark
//                                      check on the non-degraded fast
//                                      path (DESIGN.md §12.4).
//   BM_ServedKnnMutate/<mode>  mutate-then-serve passes. mode 0: stale
//                              index → exact fallback. mode 1:
//                              ApplyUpdate keeps the index fresh. The
//                              cache flushes on every mutation in both.
//
// Results are bit-identical between the modes by construction (the
// server's contract); the families measure only how fast the same
// answers arrive.

#include <benchmark/benchmark.h>

#include <vector>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "db/query_server.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

constexpr size_t kRecords = 8192;
constexpr size_t kDim = 64;
constexpr size_t kK = 5;

// Clustered final-feature-like records, same shape as micro_db.
MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    std::vector<double> f(dim, 0.0);
    Rng cls(seed ^ (r.label * 0x9E37ULL));
    for (int k = 0; k < 4; ++k) {
      f[cls.NextBelow(dim)] = 0.4 + 0.5 * rng.NextDouble();
    }
    r.feature = std::move(f);
    MOCEMG_CHECK_OK(db.Insert(std::move(r)));
  }
  return db;
}

std::vector<std::vector<double>> MakeQueries(size_t count, size_t dim,
                                             uint64_t seed) {
  std::vector<std::vector<double>> queries(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(seed + i);
    std::vector<double> q(dim, 0.0);
    for (int k = 0; k < 4; ++k) q[rng.NextBelow(dim)] = rng.NextDouble();
    queries[i] = std::move(q);
  }
  return queries;
}

const MotionDatabase& SharedDb() {
  static const MotionDatabase* db =
      new MotionDatabase(MakeDb(kRecords, kDim, 11));
  return *db;
}

const FeatureIndex& SharedIndex() {
  static const FeatureIndex* index = [] {
    auto built = FeatureIndex::Build(&SharedDb());
    MOCEMG_CHECK_OK(built.status());
    return new FeatureIndex(std::move(*built));
  }();
  return *index;
}

void ServeWorkload(benchmark::State& state,
                   const std::vector<std::vector<double>>& workload,
                   size_t cache_capacity) {
  const bool served = state.range(0) == 1;
  if (served) {
    QueryServerOptions opts;
    opts.max_batch = 64;
    opts.cache_capacity = cache_capacity;
    opts.parallel.max_threads = 1;
    auto server = QueryServer::Create(&SharedDb(), &SharedIndex(), opts);
    MOCEMG_CHECK_OK(server.status());
    for (auto _ : state) {
      auto hits = server->NearestNeighborsBatch(workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  } else {
    for (auto _ : state) {
      for (const auto& q : workload) {
        auto hits = SharedDb().NearestNeighbors(q, kK);
        benchmark::DoNotOptimize(hits);
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload.size()));
}

// All-unique workload, cache off: the win is micro-batching through the
// quantized index alone.
void BM_ServedKnnBatch(benchmark::State& state) {
  static const auto* workload =
      new std::vector<std::vector<double>>(MakeQueries(64, kDim, 101));
  ServeWorkload(state, *workload, /*cache_capacity=*/0);
}
BENCHMARK(BM_ServedKnnBatch)->Arg(0)->Arg(1);

// Hot-working-set workload (16 unique queries, each repeated 4x) with
// the cache on. After the first iteration every request is a cache hit
// — the steady state a serving front end actually runs in.
void BM_ServedKnnCached(benchmark::State& state) {
  static const auto* workload = [] {
    auto uniq = MakeQueries(16, kDim, 202);
    auto* w = new std::vector<std::vector<double>>();
    for (size_t rep = 0; rep < 4; ++rep) {
      for (const auto& q : uniq) w->push_back(q);
    }
    return w;
  }();
  ServeWorkload(state, *workload, /*cache_capacity=*/4096);
}
BENCHMARK(BM_ServedKnnCached)->Arg(0)->Arg(1);

// Mutate-while-serving: each pass mutates one record, then serves a
// hot working set of queries. The mutation bumps the database epoch,
// so the whole result cache invalidates in both modes.
//
//   mode 0: the mutation leaves the index stale — every request falls
//           back to the exact blocked scan.
//   mode 1: ApplyUpdate repacks the mutated record's partition between
//           passes — the index stays fresh and serves every request.
//
// The mutation alternates between two values so every pass does the
// same work and the pair stays deterministic.
void BM_ServedKnnMutate(benchmark::State& state) {
  const bool apply = state.range(0) == 1;
  constexpr size_t kMutated = 7;
  // Per-mode database: mutations must not leak across modes.
  static MotionDatabase* dbs[2] = {nullptr, nullptr};
  MotionDatabase*& db = dbs[apply ? 1 : 0];
  if (db == nullptr) db = new MotionDatabase(MakeDb(kRecords, kDim, 11));
  // Hot working set: perturbed copies of stored records, so each
  // query's neighbours sit tightly in one partition.
  static const auto* workload = [] {
    auto* w = new std::vector<std::vector<double>>();
    const MotionDatabase& seed_db = SharedDb();
    for (size_t i = 0; i < 48; ++i) {
      std::vector<double> q = seed_db.record((i * 37 + 1) % kRecords).feature;
      q[(i * 5) % kDim] += 0.01;
      w->push_back(std::move(q));
    }
    return w;
  }();
  QueryServerOptions opts;
  opts.max_batch = 16;
  opts.cache_capacity = 4096;
  opts.parallel.max_threads = 1;

  std::vector<double> base = db->record(kMutated).feature;
  std::vector<double> alt = base;
  alt[1] += 0.1;
  bool flip = false;

  auto built = FeatureIndex::Build(db);
  MOCEMG_CHECK_OK(built.status());
  FeatureIndex index(std::move(*built));
  auto server = QueryServer::Create(db, &index, opts);
  MOCEMG_CHECK_OK(server.status());
  for (auto _ : state) {
    MOCEMG_CHECK_OK(db->UpdateFeature(kMutated, (flip = !flip) ? alt : base));
    // The inline serve path is synchronous — nothing is in flight, so
    // the in-place ApplyUpdate is quiesced by construction.
    if (apply) MOCEMG_CHECK_OK(index.ApplyUpdate(kMutated));
    auto hits = server->NearestNeighborsBatch(*workload, kK);
    benchmark::DoNotOptimize(hits);
    MOCEMG_CHECK_OK(hits.status());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload->size()));
}
BENCHMARK(BM_ServedKnnMutate)->Arg(0)->Arg(1);

// Robustness-armed vs plain serving over the identical workload. Both
// modes run the server; mode 1 additionally stamps deadlines, sweeps
// for expiry at batch formation, and evaluates the degradation
// watermark — none of which fire (the deadline is an hour, the
// watermark is far above the queue's reach), so the pair isolates the
// pure bookkeeping overhead of the robustness layer.
void BM_ServedKnnRobust(benchmark::State& state) {
  static const auto* workload =
      new std::vector<std::vector<double>>(MakeQueries(64, kDim, 303));
  const bool robust = state.range(0) == 1;
  QueryServerOptions opts;
  opts.max_batch = 64;
  opts.cache_capacity = 0;
  opts.parallel.max_threads = 1;
  if (robust) {
    opts.default_deadline_us = 3600ULL * 1000 * 1000;  // never expires
    opts.degrade_watermark = opts.max_queue;           // never reached
  }
  auto server = QueryServer::Create(&SharedDb(), &SharedIndex(), opts);
  MOCEMG_CHECK_OK(server.status());
  for (auto _ : state) {
    auto hits = server->NearestNeighborsBatch(*workload, kK);
    benchmark::DoNotOptimize(hits);
    MOCEMG_CHECK_OK(hits.status());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload->size()));
}
BENCHMARK(BM_ServedKnnRobust)->Arg(0)->Arg(1);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
