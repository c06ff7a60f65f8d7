// Microbenchmarks: the parallel substrate. Each parallelized stage —
// window featurization, the FCM fit, batch kNN, batch classification —
// is timed at 1, 2, and 4 worker threads plus the hardware budget
// (thread arg 0), so each row reads as a speedup over the
// provably-identical serial path. Also times the raw ParallelFor
// dispatch overhead, the floor below which parallelizing a loop cannot
// pay.

#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/fcm.h"
#include "core/classifier.h"
#include "core/window_features.h"
#include "db/feature_index.h"
#include "db/motion_database.h"
#include "emg/acquisition.h"
#include "eval/protocols.h"
#include "synth/dataset.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Thread arg convention: 0 = hardware budget, otherwise the exact cap.
void ThreadArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(0 /*=hw*/);
}

const CapturedMotion& SharedTrial() {
  static const CapturedMotion* trial = [] {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.seed = 55;
    auto t = GenerateTrial(lab, 1, 0, 99);
    MOCEMG_CHECK_OK(t.status());
    return new CapturedMotion(std::move(*t));
  }();
  return *trial;
}

const std::vector<LabeledMotion>& SharedTrainingSet() {
  static const std::vector<LabeledMotion>* motions = [] {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 3;
    lab.seed = 91;
    auto data = GenerateDataset(lab);
    MOCEMG_CHECK_OK(data.status());
    return new std::vector<LabeledMotion>(
        ToLabeledMotions(std::move(*data)));
  }();
  return *motions;
}

const MotionClassifier& SharedClassifier() {
  static const MotionClassifier* clf = [] {
    ClassifierOptions opts;
    opts.fcm.num_clusters = 8;
    auto trained = MotionClassifier::Train(SharedTrainingSet(), opts);
    MOCEMG_CHECK_OK(trained.status());
    return new MotionClassifier(*std::move(trained));
  }();
  return *clf;
}

// Dispatch overhead: near-empty chunks over a large range. This is the
// fixed cost a loop must amortize before threads can win.
void BM_ParallelForDispatch(benchmark::State& state) {
  ParallelOptions opts;
  opts.max_threads = static_cast<size_t>(state.range(0));
  const size_t n = 1 << 16;
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    Status st = ParallelFor(
        n,
        [&](size_t begin, size_t end, size_t) -> Status {
          for (size_t i = begin; i < end; ++i) {
            out[i] = static_cast<double>(i) * 1.5;
          }
          return Status::OK();
        },
        opts);
    MOCEMG_CHECK_OK(st);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ParallelForDispatch)->Apply(ThreadArgs);

void BM_ParallelWindowFeatures(benchmark::State& state) {
  const CapturedMotion& trial = SharedTrial();
  auto conditioned = ConditionRecording(trial.emg_raw);
  MOCEMG_CHECK_OK(conditioned.status());
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  opts.hop_frames = 1;  // dense sliding windows: the worst-case load
  opts.parallel.max_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto features =
        ExtractWindowFeatures(trial.mocap, *conditioned, opts);
    MOCEMG_CHECK_OK(features.status());
    benchmark::DoNotOptimize(features->points.data().data());
  }
}
BENCHMARK(BM_ParallelWindowFeatures)->Apply(ThreadArgs);

void BM_ParallelFcmFit(benchmark::State& state) {
  Rng rng(31);
  Matrix points(1500, 16);
  for (double& v : points.mutable_data()) v = rng.NextDouble();
  FcmOptions opts;
  opts.num_clusters = 15;
  opts.max_iterations = 25;
  opts.epsilon = 0.0;  // fixed iteration count for comparable runs
  opts.parallel.max_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto model = FitFcm(points, opts);
    MOCEMG_CHECK_OK(model.status());
    benchmark::DoNotOptimize(model->centers.data().data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * points.rows()));
}
BENCHMARK(BM_ParallelFcmFit)->Apply(ThreadArgs);

void BM_ParallelBatchKnn(benchmark::State& state) {
  Rng rng(3);
  MotionDatabase db;
  const size_t dim = 30;
  for (size_t i = 0; i < 10000; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    r.feature.resize(dim);
    for (double& v : r.feature) v = rng.NextDouble();
    MOCEMG_CHECK_OK(db.Insert(std::move(r)));
  }
  FeatureIndexOptions opts;
  opts.parallel.max_threads = static_cast<size_t>(state.range(0));
  auto index = FeatureIndex::Build(&db, opts);
  MOCEMG_CHECK_OK(index.status());
  std::vector<std::vector<double>> queries(64,
                                           std::vector<double>(dim));
  for (auto& q : queries) {
    for (double& v : q) v = rng.NextDouble();
  }
  for (auto _ : state) {
    auto hits = index->BatchNearestNeighbors(queries, 5);
    MOCEMG_CHECK_OK(hits.status());
    benchmark::DoNotOptimize(hits->data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * queries.size()));
}
BENCHMARK(BM_ParallelBatchKnn)->Apply(ThreadArgs);

void BM_ParallelClassifyBatch(benchmark::State& state) {
  const MotionClassifier& clf = SharedClassifier();
  const std::vector<LabeledMotion>& trials = SharedTrainingSet();
  ParallelOptions par;
  par.max_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto labels = clf.ClassifyBatch(trials, par);
    MOCEMG_CHECK_OK(labels.status());
    benchmark::DoNotOptimize(labels->data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * trials.size()));
}
BENCHMARK(BM_ParallelClassifyBatch)->Apply(ThreadArgs);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
