#include "core/incremental_window.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/stream_health.h"
#include "core/streaming.h"
#include "core/window_features.h"
#include "emg/acquisition.h"
#include "emg/features.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "synth/dataset.h"
#include "synth/fault_injector.h"
#include "util/random.h"

namespace mocemg {
namespace {

// ---------------------------------------------------------------------
// Mode resolution
// ---------------------------------------------------------------------

TEST(FeaturizationModeTest, AutoResolvesOnOverlap) {
  EXPECT_EQ(ResolveFeaturizationMode(FeaturizationMode::kAuto, 12, 4),
            FeaturizationMode::kIncremental);
  EXPECT_EQ(ResolveFeaturizationMode(FeaturizationMode::kAuto, 12, 12),
            FeaturizationMode::kExact);
  EXPECT_EQ(ResolveFeaturizationMode(FeaturizationMode::kAuto, 12, 20),
            FeaturizationMode::kExact);
  // Explicit modes pass through untouched, even with disjoint windows.
  EXPECT_EQ(ResolveFeaturizationMode(FeaturizationMode::kExact, 12, 4),
            FeaturizationMode::kExact);
  EXPECT_EQ(
      ResolveFeaturizationMode(FeaturizationMode::kIncremental, 12, 12),
      FeaturizationMode::kIncremental);
}

TEST(FeaturizationModeTest, Names) {
  EXPECT_STREQ(FeaturizationModeName(FeaturizationMode::kExact), "exact");
  EXPECT_STREQ(FeaturizationModeName(FeaturizationMode::kIncremental),
               "incremental");
  EXPECT_STREQ(FeaturizationModeName(FeaturizationMode::kAuto), "auto");
}

// ---------------------------------------------------------------------
// JointGramState
// ---------------------------------------------------------------------

std::vector<double> RandomTrack(size_t frames, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> track(3 * frames);
  for (size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f);
    track[3 * f + 0] = 50.0 * std::sin(0.03 * t) + rng.Gaussian(0.0, 0.5);
    track[3 * f + 1] = 30.0 * std::cos(0.05 * t) + rng.Gaussian(0.0, 0.5);
    track[3 * f + 2] = 2.0 * t / frames + rng.Gaussian(0.0, 0.5);
  }
  return track;
}

TEST(JointGramStateTest, SlideMatchesRefresh) {
  const size_t frames = 200;
  const size_t w = 20;
  std::vector<double> track = RandomTrack(frames, 11);
  JointGramState slid;
  slid.Refresh(track.data(), w);
  size_t prev_begin = 0;
  for (size_t begin = 3; begin + w <= frames; begin += 3) {
    slid.Slide(track.data(), prev_begin, prev_begin + w, begin,
               begin + w);
    prev_begin = begin;
    JointGramState fresh;
    fresh.Refresh(track.data() + 3 * begin, w);
    double scale = 0.0;
    for (int k = 0; k < 6; ++k) {
      scale = std::max(scale, std::fabs(fresh.packed()[k]));
    }
    for (int k = 0; k < 6; ++k) {
      EXPECT_NEAR(slid.packed()[k], fresh.packed()[k], 1e-11 * scale)
          << "begin=" << begin << " entry " << k;
    }
  }
}

TEST(JointGramStateTest, DisjointSlideDegradesToRefresh) {
  std::vector<double> track = RandomTrack(100, 3);
  JointGramState slid;
  slid.Refresh(track.data(), 10);
  slid.Slide(track.data(), 0, 10, 40, 55);  // no overlap
  JointGramState fresh;
  fresh.Refresh(track.data() + 3 * 40, 15);
  for (int k = 0; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(slid.packed()[k], fresh.packed()[k]);
  }
}

TEST(JointGramStateTest, WeightedSvdFeatureMatchesExactPath) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t w = 12;
    Matrix window(w, 3);
    for (double& v : window.mutable_data()) v = rng.Uniform(-40.0, 40.0);
    JointGramState state;
    state.Refresh(window.RowPtr(0), w);
    double fast[3];
    ASSERT_TRUE(state.WeightedSvdFeature(1e-6, fast))
        << "generic window should take the fast path, trial " << trial;
    auto exact = WeightedSvdFeature(window);
    ASSERT_TRUE(exact.ok()) << exact.status();
    for (int i = 0; i < 3; ++i) {
      // The feature is a convex combination of unit-vector components,
      // so 1e-10 absolute == 1e-10 relative to its natural O(1) scale.
      EXPECT_NEAR(fast[i], (*exact)[i], 1e-10) << "trial " << trial;
    }
  }
}

TEST(JointGramStateTest, DegenerateWindowsFallBackOrMatchConvention) {
  // Rank-1 window (pure line): λ1 = λ2 = 0 trips the conditioning
  // floor — the caller must use the exact path.
  JointGramState line;
  std::vector<double> track(3 * 12);
  for (size_t f = 0; f < 12; ++f) {
    track[3 * f + 0] = 2.0 * f;
    track[3 * f + 1] = -1.0 * f;
    track[3 * f + 2] = 0.5 * f;
  }
  line.Refresh(track.data(), 12);
  double out[3];
  EXPECT_FALSE(line.WeightedSvdFeature(1e-6, out));

  // Empty/zero window: the documented stationary-joint convention is
  // the zero feature, emitted on the fast path.
  JointGramState zero;
  ASSERT_TRUE(zero.WeightedSvdFeature(1e-6, out));
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 0.0);
}

// ---------------------------------------------------------------------
// EmgWindowSums
// ---------------------------------------------------------------------

std::vector<double> RandomEmg(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> samples(n);
  for (size_t i = 0; i < n; ++i) {
    samples[i] = 2e-5 * std::sin(0.11 * i) + rng.Gaussian(0.0, 1e-5);
  }
  return samples;
}

TEST(EmgWindowSumsTest, RecomputeMatchesDirectFeatures) {
  std::vector<double> samples = RandomEmg(500, 21);
  for (size_t begin : {0u, 37u, 250u}) {
    const size_t n = 48;
    EmgWindowSums sums;
    sums.Recompute(samples.data(), begin, begin + n);
    const double* win = samples.data() + begin;
    double out = 0.0;
    ASSERT_TRUE(sums.Emit(EmgFeatureKind::kIav, n, &out).ok());
    EXPECT_DOUBLE_EQ(out, IntegralOfAbsoluteValue(win, n));
    ASSERT_TRUE(sums.Emit(EmgFeatureKind::kMav, n, &out).ok());
    EXPECT_DOUBLE_EQ(out, MeanAbsoluteValue(win, n));
    ASSERT_TRUE(sums.Emit(EmgFeatureKind::kRms, n, &out).ok());
    EXPECT_DOUBLE_EQ(out, RootMeanSquare(win, n));
    ASSERT_TRUE(sums.Emit(EmgFeatureKind::kWaveformLength, n, &out).ok());
    EXPECT_DOUBLE_EQ(out, WaveformLength(win, n));
    ASSERT_TRUE(sums.Emit(EmgFeatureKind::kZeroCrossings, n, &out).ok());
    EXPECT_EQ(static_cast<size_t>(out), ZeroCrossings(win, n));
  }
}

TEST(EmgWindowSumsTest, SlideMatchesRecompute) {
  std::vector<double> samples = RandomEmg(400, 5);
  const size_t w = 24;
  EmgWindowSums slid;
  slid.Recompute(samples.data(), 0, w);
  size_t prev = 0;
  for (size_t begin = 5; begin + w <= samples.size(); begin += 5) {
    slid.Slide(samples.data(), prev, prev + w, begin, begin + w);
    prev = begin;
    EmgWindowSums fresh;
    fresh.Recompute(samples.data(), begin, begin + w);
    EXPECT_NEAR(slid.sum_abs, fresh.sum_abs, 1e-12 * fresh.sum_abs);
    EXPECT_NEAR(slid.sum_sq, fresh.sum_sq, 1e-12 * fresh.sum_sq);
    EXPECT_NEAR(slid.waveform_length, fresh.waveform_length,
                1e-12 * fresh.waveform_length);
    // Sign-change counts are integers: sliding must be exactly right.
    EXPECT_EQ(slid.zero_crossings, fresh.zero_crossings)
        << "begin=" << begin;
  }
}

TEST(EmgWindowSumsTest, StreamingTailHeadUpdatesMatchRecompute) {
  // The per-frame protocol of core/streaming.cc: tail pushes as frames
  // arrive, head removals as the window start advances frame by frame.
  std::vector<double> samples = RandomEmg(200, 77);
  const size_t w = 12;
  EmgWindowSums state;
  size_t begin = 0;
  for (size_t f = 0; f < samples.size(); ++f) {
    if (f == 0) {
      state.AddTailSample(samples[f]);
    } else {
      state.AddTailSample(samples[f], samples[f - 1]);
    }
    if (f + 1 - begin > w) {
      state.RemoveHeadSample(samples[begin], samples[begin + 1]);
      ++begin;
    }
    if (f + 1 - begin == w) {
      EmgWindowSums fresh;
      fresh.Recompute(samples.data(), begin, f + 1);
      EXPECT_NEAR(state.sum_abs, fresh.sum_abs, 1e-12 * fresh.sum_abs);
      EXPECT_NEAR(state.waveform_length, fresh.waveform_length,
                  1e-12 * fresh.waveform_length);
      EXPECT_EQ(state.zero_crossings, fresh.zero_crossings);
    }
  }
}

TEST(EmgWindowSumsTest, SupportAndEmitErrors) {
  EXPECT_TRUE(EmgFeatureSupportsIncremental(EmgFeatureKind::kIav));
  EXPECT_TRUE(EmgFeatureSupportsIncremental(EmgFeatureKind::kMav));
  EXPECT_TRUE(EmgFeatureSupportsIncremental(EmgFeatureKind::kRms));
  EXPECT_TRUE(
      EmgFeatureSupportsIncremental(EmgFeatureKind::kWaveformLength));
  EXPECT_TRUE(
      EmgFeatureSupportsIncremental(EmgFeatureKind::kZeroCrossings));
  EXPECT_FALSE(EmgFeatureSupportsIncremental(EmgFeatureKind::kAr4));

  EmgWindowSums sums;
  sums.AddTailSample(1.0);
  double out[4];
  Status ar = sums.Emit(EmgFeatureKind::kAr4, 1, out);
  ASSERT_FALSE(ar.ok());
  EXPECT_TRUE(ar.IsInvalidArgument());
  EXPECT_NE(ar.message().find("ar4"), std::string::npos) << ar;
  EXPECT_FALSE(sums.Emit(EmgFeatureKind::kIav, 0, out).ok());
}

TEST(EmgWindowSumsTest, KindKeepsOnlyItsStatisticBitForBit) {
  // Sums built for one kind keep only the statistic it reads, with the
  // same bits the all-statistics sums give it under every update form;
  // the others stay zero and their kinds are refused.
  const std::vector<double> samples = RandomEmg(300, 13);
  const size_t w = 24;
  const EmgFeatureKind kinds[] = {
      EmgFeatureKind::kIav, EmgFeatureKind::kMav, EmgFeatureKind::kRms,
      EmgFeatureKind::kWaveformLength, EmgFeatureKind::kZeroCrossings};
  // IAV and MAV read the same statistic.
  const auto statistic = [](EmgFeatureKind k) {
    return k == EmgFeatureKind::kMav ? EmgFeatureKind::kIav : k;
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (EmgFeatureKind kind : kinds) {
    const std::string name = EmgFeatureKindName(kind);
    EmgWindowSums all;
    EmgWindowSums one(kind);
    all.Recompute(samples.data(), 0, w);
    one.Recompute(samples.data(), 0, w);
    size_t prev = 0;
    for (size_t begin = 6; begin + w <= samples.size(); begin += 6) {
      all.Slide(samples.data(), prev, prev + w, begin, begin + w);
      one.Slide(samples.data(), prev, prev + w, begin, begin + w);
      prev = begin;
      double a = 0.0;
      double b = 0.0;
      ASSERT_TRUE(all.Emit(kind, w, &a).ok());
      ASSERT_TRUE(one.Emit(kind, w, &b).ok()) << name;
      EXPECT_TRUE(same_bits(a, b)) << name << " begin=" << begin;
    }
    EmgWindowSums all_streamed;
    EmgWindowSums one_streamed(kind);
    size_t head = 0;
    for (size_t f = 0; f < samples.size(); ++f) {
      for (EmgWindowSums* s : {&all_streamed, &one_streamed}) {
        if (f == 0) {
          s->AddTailSample(samples[f]);
        } else {
          s->AddTailSample(samples[f], samples[f - 1]);
        }
        if (f + 1 - head > w) {
          s->RemoveHeadSample(samples[head], samples[head + 1]);
        }
      }
      if (f + 1 - head > w) ++head;
      double a = 0.0;
      double b = 0.0;
      ASSERT_TRUE(all_streamed.Emit(kind, w, &a).ok());
      ASSERT_TRUE(one_streamed.Emit(kind, w, &b).ok());
      EXPECT_TRUE(same_bits(a, b)) << name << " frame=" << f;
    }
    for (EmgFeatureKind other : kinds) {
      double out = 0.0;
      const Status st = one.Emit(other, w, &out);
      if (statistic(other) == statistic(kind)) {
        EXPECT_TRUE(st.ok()) << name << " emits " << EmgFeatureKindName(other);
      } else {
        EXPECT_TRUE(st.IsFailedPrecondition())
            << name << " emits " << EmgFeatureKindName(other) << ": " << st;
      }
    }
    const int kept = (one.sum_abs != 0.0) + (one.sum_sq != 0.0) +
                     (one.waveform_length != 0.0) +
                     (one.zero_crossings != 0);
    EXPECT_EQ(kept, 1) << name;
  }
  // AR(4) keeps nothing and still reports that it has no incremental
  // form.
  EmgWindowSums ar(EmgFeatureKind::kAr4);
  ar.AddTailSample(1.0);
  double out[4];
  EXPECT_TRUE(ar.Emit(EmgFeatureKind::kAr4, 1, out).IsInvalidArgument());
  EXPECT_TRUE(ar.Emit(EmgFeatureKind::kIav, 1, out).IsFailedPrecondition());
}

// ---------------------------------------------------------------------
// Batch equivalence property: incremental ≈ exact within 1e-10
// ---------------------------------------------------------------------

struct Capture {
  MotionSequence mocap;
  EmgRecording emg;
};

/// A 4-marker (pelvis + 3), 3-channel capture with rich full-rank joint
/// motion and signed, zero-crossing EMG content.
Capture MakeRandomCapture(uint64_t seed, size_t frames) {
  Rng rng(seed);
  MarkerSet set({Segment::kPelvis, Segment::kHumerus, Segment::kRadius,
                 Segment::kHand});
  Matrix positions(frames, 12);
  for (size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f);
    positions(f, 0) = 10.0 + 0.05 * t;
    positions(f, 1) = -5.0 + 0.02 * t;
    positions(f, 2) = 3.0;
    for (size_t m = 1; m < 4; ++m) {
      const double dm = static_cast<double>(m);
      positions(f, 3 * m + 0) = 80.0 * dm +
                                40.0 * std::sin(0.021 * dm * t + dm) +
                                rng.Gaussian(0.0, 0.4);
      positions(f, 3 * m + 1) = 30.0 * std::cos(0.017 * dm * t) +
                                rng.Gaussian(0.0, 0.4);
      positions(f, 3 * m + 2) = 200.0 + 2.0 * dm * t / frames +
                                10.0 * std::sin(0.05 * t) +
                                rng.Gaussian(0.0, 0.4);
    }
  }
  Capture cap;
  cap.mocap = *MotionSequence::Create(set, std::move(positions), 120.0);
  std::vector<std::vector<double>> channels(3,
                                            std::vector<double>(frames));
  for (size_t c = 0; c < 3; ++c) {
    for (size_t f = 0; f < frames; ++f) {
      channels[c][f] = 2e-5 * std::sin(0.07 * (c + 1) * f + c) +
                       rng.Gaussian(0.0, 1e-5);
    }
  }
  cap.emg = *EmgRecording::Create(
      {Muscle::kBiceps, Muscle::kTriceps, Muscle::kUpperForearm},
      std::move(channels), 120.0);
  return cap;
}

/// Asserts a ≈ b elementwise at `rtol` relative to each element's O(1+x)
/// scale — the incremental path's documented tolerance contract.
void ExpectMatricesClose(const Matrix& a, const Matrix& b, double rtol,
                         const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      const double scale =
          1.0 + std::max(std::fabs(a(r, c)), std::fabs(b(r, c)));
      ASSERT_NEAR(a(r, c), b(r, c), rtol * scale)
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

TEST(IncrementalEquivalenceTest, MatchesExactAcrossWindowHopGeometries) {
  const struct {
    double window_ms;
    size_t hop_frames;
  } kGeometries[] = {{100.0, 1}, {100.0, 4}, {100.0, 11}, {50.0, 2},
                     {150.0, 6}, {200.0, 8}};
  for (uint64_t seed : {101u, 202u}) {
    Capture cap = MakeRandomCapture(seed, 300);
    for (const auto& geo : kGeometries) {
      WindowFeatureOptions exact;
      exact.window_ms = geo.window_ms;
      exact.hop_frames = geo.hop_frames;
      exact.featurization_mode = FeaturizationMode::kExact;
      WindowFeatureOptions inc = exact;
      inc.featurization_mode = FeaturizationMode::kIncremental;
      auto fe = ExtractWindowFeatures(cap.mocap, cap.emg, exact);
      auto fi = ExtractWindowFeatures(cap.mocap, cap.emg, inc);
      ASSERT_TRUE(fe.ok()) << fe.status();
      ASSERT_TRUE(fi.ok()) << fi.status();
      ExpectMatricesClose(fe->points, fi->points, 1e-10,
                          "incremental vs exact");
    }
  }
}

TEST(IncrementalEquivalenceTest, HoldsForEveryRefreshCadence) {
  Capture cap = MakeRandomCapture(303, 300);
  WindowFeatureOptions exact;
  exact.window_ms = 100.0;
  exact.hop_frames = 2;
  exact.featurization_mode = FeaturizationMode::kExact;
  auto fe = ExtractWindowFeatures(cap.mocap, cap.emg, exact);
  ASSERT_TRUE(fe.ok());
  for (size_t interval : {0u, 1u, 5u, 16u, 1000u}) {
    WindowFeatureOptions inc = exact;
    inc.featurization_mode = FeaturizationMode::kIncremental;
    inc.gram_refresh_interval = interval;
    auto fi = ExtractWindowFeatures(cap.mocap, cap.emg, inc);
    ASSERT_TRUE(fi.ok()) << fi.status();
    ExpectMatricesClose(fe->points, fi->points, 1e-10, "refresh cadence");
  }
}

TEST(IncrementalEquivalenceTest, HoldsForEveryEmgFeatureKind) {
  Capture cap = MakeRandomCapture(404, 240);
  for (EmgFeatureKind kind :
       {EmgFeatureKind::kIav, EmgFeatureKind::kMav, EmgFeatureKind::kRms,
        EmgFeatureKind::kWaveformLength, EmgFeatureKind::kZeroCrossings,
        EmgFeatureKind::kAr4}) {
    WindowFeatureOptions exact;
    exact.window_ms = 100.0;
    exact.hop_frames = 3;
    exact.emg_feature = kind;
    exact.featurization_mode = FeaturizationMode::kExact;
    WindowFeatureOptions inc = exact;
    inc.featurization_mode = FeaturizationMode::kIncremental;
    auto fe = ExtractWindowFeatures(cap.mocap, cap.emg, exact);
    auto fi = ExtractWindowFeatures(cap.mocap, cap.emg, inc);
    ASSERT_TRUE(fe.ok()) << fe.status();
    ASSERT_TRUE(fi.ok()) << fi.status();
    ExpectMatricesClose(fe->points, fi->points, 1e-10,
                        EmgFeatureKindName(kind));
  }
}

TEST(IncrementalEquivalenceTest, DegenerateMocapIsByteIdentical) {
  // Constant markers (rank ≤ 1 after the local transform) and pure
  // line/plane motion all trip the conditioning guard, which recomputes
  // the joint-window on the exact path — so the result must match the
  // exact engine bit for bit, not merely within tolerance.
  const size_t frames = 240;
  MarkerSet set({Segment::kPelvis, Segment::kHumerus, Segment::kRadius,
                 Segment::kHand});
  Matrix positions(frames, 12);
  for (size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f);
    positions(f, 0) = 10.0;  // static pelvis
    positions(f, 3) = 100.0;  // constant joint
    positions(f, 4) = 50.0;
    positions(f, 5) = 7.0;
    positions(f, 6) = 200.0 + 2.0 * t;  // pure line
    positions(f, 7) = 10.0 - 1.0 * t;
    positions(f, 8) = 0.5 * t;
    // Pure plane: z equals the pelvis z, so the translation-only local
    // transform zeroes it exactly and the joint-window is rank 2.
    positions(f, 9) = 300.0 + 20.0 * std::sin(0.1 * t);
    positions(f, 10) = 20.0 * std::cos(0.1 * t);
    positions(f, 11) = 0.0;
  }
  Capture cap;
  cap.mocap = *MotionSequence::Create(set, std::move(positions), 120.0);
  WindowFeatureOptions exact;
  exact.window_ms = 100.0;
  exact.hop_frames = 4;
  exact.use_emg = false;
  exact.featurization_mode = FeaturizationMode::kExact;
  WindowFeatureOptions inc = exact;
  inc.featurization_mode = FeaturizationMode::kIncremental;
  EmgRecording unused;
  auto fe = ExtractWindowFeatures(cap.mocap, unused, exact);
  auto fi = ExtractWindowFeatures(cap.mocap, unused, inc);
  ASSERT_TRUE(fe.ok()) << fe.status();
  ASSERT_TRUE(fi.ok()) << fi.status();
  WindowFeatureStats stats;
  auto again = ExtractWindowFeatures(cap.mocap, unused, inc, &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(stats.gram_fast_windows, 0u);
  EXPECT_EQ(stats.gram_fallback_windows, stats.num_windows * 3);
  const auto& de = fe->points.data();
  const auto& di = fi->points.data();
  ASSERT_EQ(de.size(), di.size());
  for (size_t i = 0; i < de.size(); ++i) {
    ASSERT_EQ(de[i], di[i]) << "flat index " << i;
  }
}

TEST(IncrementalEquivalenceTest, SurvivesCorruptedThenRepairedStreams) {
  // A FaultInjector-degraded capture, repaired by StreamHealth and
  // conditioned: held markers produce long constant runs (degenerate
  // windows mid-stream) and hum/saturation stress the EMG sums. The
  // equivalence contract must hold on this data too.
  DatasetOptions dopts;
  dopts.limb = Limb::kRightHand;
  dopts.trials_per_class = 1;
  dopts.seed = 77;
  auto data = GenerateDataset(dopts);
  ASSERT_TRUE(data.ok()) << data.status();
  FaultInjectorOptions fopts;
  fopts.seed = 88;
  fopts.occlusion_marker_fraction = 0.6;
  fopts.occlusion_fraction = 0.3;
  fopts.saturation_channel_fraction = 0.5;
  fopts.hum_channel_fraction = 0.5;
  fopts.hum_amplitude_v = 2e-4;
  FaultInjector injector(fopts);
  for (size_t i = 0; i < std::min<size_t>(data->size(), 3); ++i) {
    const CapturedMotion& m = (*data)[i];
    auto bad_mocap = injector.CorruptMocap(m.mocap);
    ASSERT_TRUE(bad_mocap.ok()) << bad_mocap.status();
    StreamHealth health;
    auto repaired = health.RepairMocap(*bad_mocap, nullptr);
    ASSERT_TRUE(repaired.ok()) << repaired.status();
    auto bad_emg = injector.CorruptEmg(m.emg_raw);
    ASSERT_TRUE(bad_emg.ok()) << bad_emg.status();
    AcquisitionOptions acq;
    acq.output_rate_hz = m.mocap.frame_rate_hz();
    auto conditioned = ConditionRecording(*bad_emg, acq);
    ASSERT_TRUE(conditioned.ok()) << conditioned.status();

    WindowFeatureOptions exact;
    exact.window_ms = 100.0;
    exact.hop_frames = 3;
    exact.featurization_mode = FeaturizationMode::kExact;
    WindowFeatureOptions inc = exact;
    inc.featurization_mode = FeaturizationMode::kIncremental;
    auto fe = ExtractWindowFeatures(*repaired, *conditioned, exact);
    auto fi = ExtractWindowFeatures(*repaired, *conditioned, inc);
    ASSERT_TRUE(fe.ok()) << fe.status();
    ASSERT_TRUE(fi.ok()) << fi.status();
    ExpectMatricesClose(fe->points, fi->points, 1e-10,
                        "repaired capture");
  }
}

// ---------------------------------------------------------------------
// Hop resolution and extraction stats (satellites S1/S2)
// ---------------------------------------------------------------------

TEST(ResolveHopFramesTest, PrecedenceAndConflicts) {
  WindowFeatureOptions opts;
  // Defaults: non-overlapping.
  auto hop = ResolveHopFrames(opts, 120.0, 12);
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(*hop, 12u);
  // hop_frames alone.
  opts.hop_frames = 4;
  hop = ResolveHopFrames(opts, 120.0, 12);
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(*hop, 4u);
  // hop_ms wins.
  opts.hop_frames = 0;
  opts.hop_ms = 50.0;
  hop = ResolveHopFrames(opts, 120.0, 12);
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(*hop, 6u);
  // Both set and agreeing at this rate: accepted.
  opts.hop_frames = 6;
  hop = ResolveHopFrames(opts, 120.0, 12);
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(*hop, 6u);
  // Both set and disagreeing: rejected, naming both fields.
  opts.hop_frames = 7;
  hop = ResolveHopFrames(opts, 120.0, 12);
  ASSERT_FALSE(hop.ok());
  EXPECT_TRUE(hop.status().IsInvalidArgument());
  EXPECT_NE(hop.status().message().find("hop_ms"), std::string::npos)
      << hop.status();
  EXPECT_NE(hop.status().message().find("hop_frames"), std::string::npos)
      << hop.status();
}

TEST(ResolveHopFramesTest, ExtractionRejectsConflictingHop) {
  Capture cap = MakeRandomCapture(9, 240);
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  opts.hop_ms = 50.0;    // 6 frames at 120 Hz
  opts.hop_frames = 7;   // disagrees
  auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
  EXPECT_NE(out.status().message().find("hop_frames"), std::string::npos)
      << out.status();
}

TEST(WindowFeatureStatsTest, ReportsTruncationModesAndGramCounters) {
  Capture cap = MakeRandomCapture(31, 240);
  auto shorter = cap.emg.SampleSlice(0, 200);
  ASSERT_TRUE(shorter.ok());
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  opts.hop_frames = 4;
  WindowFeatureStats stats;
  auto out = ExtractWindowFeatures(cap.mocap, *shorter, opts, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(stats.mocap_frames_dropped, 40u);
  EXPECT_EQ(stats.emg_samples_dropped, 0u);
  EXPECT_EQ(stats.frames_used, 200u);
  EXPECT_EQ(stats.num_windows, out->plan.num_windows());
  // kAuto with hop < window resolves both modalities to incremental.
  EXPECT_EQ(stats.emg_mode, FeaturizationMode::kIncremental);
  EXPECT_EQ(stats.mocap_mode, FeaturizationMode::kIncremental);
  // Every joint-window is either a fast Gram emission or a fallback.
  EXPECT_EQ(stats.gram_fast_windows + stats.gram_fallback_windows,
            stats.num_windows * 3);
  EXPECT_GT(stats.gram_fast_windows, 0u);
  EXPECT_GE(stats.gram_refreshes, 1u);

  // Non-overlapping default hop: kAuto resolves to exact, counters 0.
  WindowFeatureOptions plain;
  plain.window_ms = 100.0;
  auto out2 = ExtractWindowFeatures(cap.mocap, cap.emg, plain, &stats);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(stats.mocap_frames_dropped, 0u);
  EXPECT_EQ(stats.emg_samples_dropped, 0u);
  EXPECT_EQ(stats.emg_mode, FeaturizationMode::kExact);
  EXPECT_EQ(stats.mocap_mode, FeaturizationMode::kExact);
  EXPECT_EQ(stats.gram_fast_windows + stats.gram_fallback_windows, 0u);
}

// ---------------------------------------------------------------------
// Streaming equivalence
// ---------------------------------------------------------------------

class IncrementalStreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetOptions opts;
    opts.limb = Limb::kRightHand;
    opts.trials_per_class = 3;
    opts.seed = 1234;
    data_ = new std::vector<CapturedMotion>(*GenerateDataset(opts));
    std::vector<LabeledMotion> train;
    for (const auto& m : *data_) {
      LabeledMotion lm;
      lm.mocap = m.mocap;
      lm.emg = m.emg_raw;
      lm.label = m.class_id;
      lm.label_name = m.class_name;
      train.push_back(std::move(lm));
    }
    ClassifierOptions copts;
    copts.fcm.num_clusters = 6;
    copts.fcm.seed = 5;
    // Overlapping windows so the streaming incremental path engages.
    copts.features.window_ms = 100.0;
    copts.features.hop_frames = 4;
    model_ = new MotionClassifier(*MotionClassifier::Train(train, copts));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete model_;
    data_ = nullptr;
    model_ = nullptr;
  }

  static void StreamCapture(const CapturedMotion& m,
                            StreamingClassifier* streamer) {
    auto conditioned = ConditionRecording(m.emg_raw);
    ASSERT_TRUE(conditioned.ok());
    const size_t frames =
        std::min(m.mocap.num_frames(), conditioned->num_samples());
    for (size_t f = 0; f < frames; ++f) {
      std::vector<double> marker_frame(3 * m.mocap.num_markers());
      for (size_t k = 0; k < marker_frame.size(); ++k) {
        marker_frame[k] = m.mocap.positions()(f, k);
      }
      std::vector<double> emg_frame(conditioned->num_channels());
      for (size_t c = 0; c < emg_frame.size(); ++c) {
        emg_frame[c] = conditioned->channel(c)[f];
      }
      ASSERT_TRUE(streamer->PushFrame(marker_frame, emg_frame).ok());
    }
  }

  static StreamingClassifier MakeStreamer(FeaturizationMode mode) {
    StreamingOptions sopts;
    sopts.featurization_mode = mode;
    return *StreamingClassifier::Create(model_, /*num_markers=*/5,
                                        /*pelvis_index=*/0,
                                        /*num_emg_channels=*/4, sopts);
  }

  static std::vector<CapturedMotion>* data_;
  static MotionClassifier* model_;
};

std::vector<CapturedMotion>* IncrementalStreamingTest::data_ = nullptr;
MotionClassifier* IncrementalStreamingTest::model_ = nullptr;

TEST_F(IncrementalStreamingTest, MatchesExactStreamingPath) {
  for (size_t i = 0; i < data_->size(); i += 5) {
    const CapturedMotion& m = (*data_)[i];
    StreamingClassifier exact = MakeStreamer(FeaturizationMode::kExact);
    StreamingClassifier inc =
        MakeStreamer(FeaturizationMode::kIncremental);
    StreamCapture(m, &exact);
    StreamCapture(m, &inc);
    ASSERT_EQ(exact.windows_completed(), inc.windows_completed());
    ASSERT_GT(exact.windows_completed(), 0u);
    auto fe = exact.CurrentFinalFeature();
    auto fi = inc.CurrentFinalFeature();
    ASSERT_TRUE(fe.ok()) << fe.status();
    ASSERT_TRUE(fi.ok()) << fi.status();
    ASSERT_EQ(fe->size(), fi->size());
    for (size_t k = 0; k < fe->size(); ++k) {
      // The final feature folds per-window round-off through the
      // normalizer and Eq. 9 memberships; 1e-8 leaves ~100x headroom
      // over the 1e-10 per-window contract.
      EXPECT_NEAR((*fe)[k], (*fi)[k], 1e-8) << "trial " << i;
    }
    auto de = exact.CurrentDecision();
    auto di = inc.CurrentDecision();
    ASSERT_TRUE(de.ok()) << de.status();
    ASSERT_TRUE(di.ok()) << di.status();
    EXPECT_EQ(*de, *di) << "trial " << i;
  }
}

TEST_F(IncrementalStreamingTest, ResetRestoresEquivalence) {
  StreamingClassifier inc = MakeStreamer(FeaturizationMode::kIncremental);
  StreamCapture((*data_)[0], &inc);
  EXPECT_GT(inc.windows_completed(), 0u);
  inc.Reset();
  EXPECT_EQ(inc.windows_completed(), 0u);
  StreamingClassifier exact = MakeStreamer(FeaturizationMode::kExact);
  StreamCapture((*data_)[1], &exact);
  StreamCapture((*data_)[1], &inc);
  auto fe = exact.CurrentFinalFeature();
  auto fi = inc.CurrentFinalFeature();
  ASSERT_TRUE(fe.ok());
  ASSERT_TRUE(fi.ok());
  for (size_t k = 0; k < fe->size(); ++k) {
    EXPECT_NEAR((*fe)[k], (*fi)[k], 1e-8);
  }
}

}  // namespace
}  // namespace mocemg
