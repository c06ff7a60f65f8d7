// Microbenchmarks: the acquisition chain (band-pass + rectify +
// resample), window-feature extraction, and end-to-end featurization of
// one motion — the per-capture costs an online application pays.

#include <benchmark/benchmark.h>

#include "core/classifier.h"
#include "core/window_features.h"
#include "emg/acquisition.h"
#include "eval/protocols.h"
#include "synth/dataset.h"
#include "util/logging.h"

namespace mocemg {
namespace {

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

void BM_ConditionRecording(benchmark::State& state) {
  const CapturedMotion& trial = SharedTrial();
  for (auto _ : state) {
    auto out = ConditionRecording(trial.emg_raw);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * trial.emg_raw.num_samples() *
      trial.emg_raw.num_channels()));
}
BENCHMARK(BM_ConditionRecording);

void WindowFeatureExtraction(benchmark::State& state, double window_ms,
                             double hop_ms, size_t max_threads) {
  const CapturedMotion& trial = SharedTrial();
  auto conditioned = ConditionRecording(trial.emg_raw);
  MOCEMG_CHECK_OK(conditioned.status());
  WindowFeatureOptions opts;
  opts.window_ms = window_ms;
  opts.hop_ms = hop_ms;
  opts.parallel.max_threads = max_threads;
  for (auto _ : state) {
    auto features =
        ExtractWindowFeatures(trial.mocap, *conditioned, opts);
    benchmark::DoNotOptimize(features);
  }
}

// Args: {window_ms, max_threads} with 0 = hardware thread budget.
// Non-overlapping windows, so kAuto picks the exact engine.
void BM_WindowFeatureExtraction(benchmark::State& state) {
  WindowFeatureExtraction(state, static_cast<double>(state.range(0)), 0.0,
                          static_cast<size_t>(state.range(1)));
}
BENCHMARK(BM_WindowFeatureExtraction)
    ->ArgsProduct({{50, 100, 200}, {1, 2, 0 /*=hw*/}});

// Args: {window_ms, hop_ms, max_threads}. Overlapping windows, so kAuto
// picks the incremental engine; 100/50 ms is the paper setting that
// Classify runs in the end-to-end benchmark.
void BM_WindowFeatureExtractionHop(benchmark::State& state) {
  WindowFeatureExtraction(state, static_cast<double>(state.range(0)),
                          static_cast<double>(state.range(1)),
                          static_cast<size_t>(state.range(2)));
}
BENCHMARK(BM_WindowFeatureExtractionHop)->Args({100, 50, 1});

// One Classify (raw capture → label) at the end-to-end benchmark's
// setting: right hand, trained on EXPERIMENTS.md's seed with c = 15,
// 100/50 ms windows, one thread. Each iteration takes the next of 120
// held-out captures (about 13 MB of raw input), so the capture arrives
// from beyond L2 as it does in batch_classify rather than staying hot
// in cache.
void BM_ClassifyCapture(benchmark::State& state) {
  static const MotionClassifier* clf = nullptr;
  static const std::vector<LabeledMotion>* captures = nullptr;
  if (clf == nullptr) {
    constexpr uint64_t kSeed = 20070415;
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 10;
    lab.seed = kSeed;
    auto data = GenerateDataset(lab);
    MOCEMG_CHECK_OK(data.status());
    ClassifierOptions opts;
    opts.features.window_ms = 100.0;
    opts.features.hop_ms = 50.0;
    opts.features.parallel.max_threads = 1;
    opts.fcm.num_clusters = 15;
    opts.fcm.seed = kSeed ^ 0xC0FFEE;
    opts.fcm.max_iterations = 80;
    opts.fcm.epsilon = 1e-4;
    auto trained =
        MotionClassifier::Train(ToLabeledMotions(*std::move(data)), opts);
    MOCEMG_CHECK_OK(trained.status());
    clf = new MotionClassifier(*std::move(trained));
    const size_t classes = NumClassesForLimb(lab.limb);
    std::vector<CapturedMotion> held_out;
    for (size_t i = 0; i < 120; ++i) {
      auto t = GenerateTrial(lab, i % classes, 1000 + i, 7919 * (i + 1));
      MOCEMG_CHECK_OK(t.status());
      held_out.push_back(*std::move(t));
    }
    captures = new std::vector<LabeledMotion>(
        ToLabeledMotions(std::move(held_out)));
  }
  size_t next = 0;
  for (auto _ : state) {
    const LabeledMotion& m = (*captures)[next];
    next = next + 1 == captures->size() ? 0 : next + 1;
    auto label = clf->Classify(m.mocap, m.emg);
    MOCEMG_CHECK_OK(label.status());
    benchmark::DoNotOptimize(*label);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifyCapture);

// Batch classification of a whole dataset, the shape of an evaluation
// sweep. Arg: max_threads (0 = hardware budget).
void BM_ClassifyBatch(benchmark::State& state) {
  static const MotionClassifier* clf = nullptr;
  static const std::vector<LabeledMotion>* trials = nullptr;
  if (clf == nullptr) {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 3;
    lab.seed = 91;
    auto data = GenerateDataset(lab);
    MOCEMG_CHECK_OK(data.status());
    trials = new std::vector<LabeledMotion>(
        ToLabeledMotions(std::move(*data)));
    ClassifierOptions opts;
    opts.fcm.num_clusters = 8;
    auto trained = MotionClassifier::Train(*trials, opts);
    MOCEMG_CHECK_OK(trained.status());
    clf = new MotionClassifier(*std::move(trained));
  }
  ParallelOptions par;
  par.max_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto labels = clf->ClassifyBatch(*trials, par);
    MOCEMG_CHECK_OK(labels.status());
    benchmark::DoNotOptimize(labels->data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * trials->size()));
}
BENCHMARK(BM_ClassifyBatch)->Arg(1)->Arg(2)->Arg(0 /*=hw*/);

void BM_TrialSynthesis(benchmark::State& state) {
  DatasetOptions lab;
  lab.limb = Limb::kRightHand;
  lab.seed = 77;
  uint64_t salt = 0;
  for (auto _ : state) {
    auto t = GenerateTrial(lab, salt % 6, 0, 1000 + salt);
    ++salt;
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrialSynthesis);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
