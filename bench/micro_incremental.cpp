// Microbenchmarks for the incremental featurization engine: exact vs
// incremental batch extraction across hop/window ratios, the streaming
// per-frame path in both modes, and the two SVD kernels underneath
// (w×3 one-sided Jacobi vs the 3×3 Gram eigensolver). Compare the
// exact and incremental modes of one family within a run.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/classifier.h"
#include "core/streaming.h"
#include "core/window_features.h"
#include "emg/acquisition.h"
#include "eval/protocols.h"
#include "linalg/gram_svd.h"
#include "linalg/svd.h"
#include "synth/dataset.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

const CapturedMotion& SharedTrial() {
  static const CapturedMotion* trial = [] {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.seed = 56;
    auto t = GenerateTrial(lab, 1, 0, 42);
    MOCEMG_CHECK_OK(t.status());
    return new CapturedMotion(std::move(*t));
  }();
  return *trial;
}

const EmgRecording& SharedConditioned() {
  static const EmgRecording* emg = [] {
    auto out = ConditionRecording(SharedTrial().emg_raw);
    MOCEMG_CHECK_OK(out.status());
    return new EmgRecording(std::move(*out));
  }();
  return *emg;
}

// Args: {window_ms, hop_divisor, mode} with hop = window/divisor and
// mode 0 = exact, 1 = incremental. Serial (max_threads = 1) so the
// ratio isolates the engine, not the thread pool.
void BM_BatchFeaturization(benchmark::State& state) {
  const CapturedMotion& trial = SharedTrial();
  const EmgRecording& conditioned = SharedConditioned();
  WindowFeatureOptions opts;
  opts.window_ms = static_cast<double>(state.range(0));
  opts.hop_ms = opts.window_ms / static_cast<double>(state.range(1));
  opts.parallel.max_threads = 1;
  opts.featurization_mode = state.range(2) == 1
                                ? FeaturizationMode::kIncremental
                                : FeaturizationMode::kExact;
  size_t windows = 0;
  for (auto _ : state) {
    auto features = ExtractWindowFeatures(trial.mocap, conditioned, opts);
    MOCEMG_CHECK_OK(features.status());
    windows = features->plan.num_windows();
    benchmark::DoNotOptimize(features->points.data().data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * windows));
}
BENCHMARK(BM_BatchFeaturization)
    ->ArgsProduct({{100, 200}, {1, 2, 4, 8}, {0, 1}});

// Arg: mode (0 = exact, 1 = incremental). The per-frame cost of online
// classification with the model's 100 ms window / 25 ms hop geometry —
// the constant-latency claim of the incremental streaming path.
void BM_StreamingPushFrame(benchmark::State& state) {
  static const MotionClassifier* model = nullptr;
  static const std::vector<std::vector<double>>* marker_frames = nullptr;
  static const std::vector<std::vector<double>>* emg_frames = nullptr;
  if (model == nullptr) {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 2;
    lab.seed = 73;
    auto data = GenerateDataset(lab);
    MOCEMG_CHECK_OK(data.status());
    auto train = ToLabeledMotions(std::move(*data));
    ClassifierOptions copts;
    copts.features.window_ms = 100.0;
    copts.features.hop_ms = 25.0;  // overlapping: hop = window/4
    copts.fcm.num_clusters = 6;
    copts.fcm.seed = 3;
    auto trained = MotionClassifier::Train(train, copts);
    MOCEMG_CHECK_OK(trained.status());
    model = new MotionClassifier(*std::move(trained));

    const CapturedMotion& trial = SharedTrial();
    const EmgRecording& conditioned = SharedConditioned();
    const size_t frames = std::min(trial.mocap.num_frames(),
                                   conditioned.num_samples());
    auto* markers = new std::vector<std::vector<double>>(frames);
    auto* emg = new std::vector<std::vector<double>>(frames);
    for (size_t f = 0; f < frames; ++f) {
      (*markers)[f].resize(3 * trial.mocap.num_markers());
      for (size_t k = 0; k < (*markers)[f].size(); ++k) {
        (*markers)[f][k] = trial.mocap.positions()(f, k);
      }
      (*emg)[f].resize(conditioned.num_channels());
      for (size_t c = 0; c < conditioned.num_channels(); ++c) {
        (*emg)[f][c] = conditioned.channel(c)[f];
      }
    }
    marker_frames = markers;
    emg_frames = emg;
  }
  StreamingOptions sopts;
  sopts.featurization_mode = state.range(0) == 1
                                 ? FeaturizationMode::kIncremental
                                 : FeaturizationMode::kExact;
  auto streamer = StreamingClassifier::Create(
      model, /*num_markers=*/5, /*pelvis_index=*/0,
      /*num_emg_channels=*/4, sopts);
  MOCEMG_CHECK_OK(streamer.status());
  size_t f = 0;
  for (auto _ : state) {
    MOCEMG_CHECK_OK(
        streamer->PushFrame((*marker_frames)[f], (*emg_frames)[f]));
    f = (f + 1) % marker_frames->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamingPushFrame)->Arg(0)->Arg(1);

Matrix RandomWindow(size_t w) {
  Rng rng(19);
  Matrix a(w, 3);
  for (double& v : a.mutable_data()) v = rng.Uniform(-50.0, 50.0);
  return a;
}

// Arg: window length w. The exact kernel the incremental path replaces.
void BM_ExactWindowSvd(benchmark::State& state) {
  const Matrix a = RandomWindow(static_cast<size_t>(state.range(0)));
  SvdScratch scratch;
  SvdResult result;
  for (auto _ : state) {
    MOCEMG_CHECK_OK(ComputeSvdInto(a, SvdOptions{}, &scratch, &result));
    benchmark::DoNotOptimize(result.singular_values.data());
  }
}
BENCHMARK(BM_ExactWindowSvd)->Arg(12)->Arg(24);

// Arg: window length the Gram was built from — the solve itself is
// O(1), which is the point.
void BM_GramEigensolve(benchmark::State& state) {
  const Matrix a = RandomWindow(static_cast<size_t>(state.range(0)));
  double gram[6] = {0, 0, 0, 0, 0, 0};
  for (size_t r = 0; r < a.rows(); ++r) {
    const double x = a(r, 0);
    const double y = a(r, 1);
    const double z = a(r, 2);
    gram[0] += x * x;
    gram[1] += x * y;
    gram[2] += x * z;
    gram[3] += y * y;
    gram[4] += y * z;
    gram[5] += z * z;
  }
  GramSvd3 eig;
  for (auto _ : state) {
    MOCEMG_CHECK_OK(ComputeSvdFromGram3(gram, &eig));
    benchmark::DoNotOptimize(eig.sigma);
  }
}
BENCHMARK(BM_GramEigensolve)->Arg(12)->Arg(24);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
