#include "core/window_features.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "synth/dataset.h"

namespace mocemg {
namespace {

// A small synchronized capture: 2 markers (pelvis + hand) at 120 Hz and
// 2 conditioned EMG channels at the same rate.
struct Capture {
  MotionSequence mocap;
  EmgRecording emg;
};

Capture MakeCapture(size_t frames = 120) {
  MarkerSet set({Segment::kPelvis, Segment::kHand});
  Matrix positions(frames, 6);
  for (size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f);
    positions(f, 0) = 100.0;  // pelvis parked away from origin
    positions(f, 3) = 100.0 + 2.0 * t;
    positions(f, 4) = std::sin(0.1 * t) * 30.0;
    positions(f, 5) = 500.0;
  }
  Capture cap;
  cap.mocap = *MotionSequence::Create(set, std::move(positions), 120.0);
  std::vector<double> ch1(frames);
  std::vector<double> ch2(frames);
  for (size_t f = 0; f < frames; ++f) {
    ch1[f] = 1e-5 * (1.0 + std::sin(0.05 * f));
    ch2[f] = 2e-5;
  }
  cap.emg = *EmgRecording::Create({Muscle::kBiceps, Muscle::kTriceps},
                                  {ch1, ch2}, 120.0);
  return cap;
}

TEST(WindowFeaturesTest, DimensionFormula) {
  WindowFeatureOptions opts;
  // 4 EMG channels + 3·4 mocap = 16 (the paper's hand space).
  EXPECT_EQ(WindowFeatureDimension(opts, 4, 4), 16u);
  // 2 EMG + 3·3 mocap = 11 (the leg space).
  EXPECT_EQ(WindowFeatureDimension(opts, 2, 3), 11u);
  opts.use_emg = false;
  EXPECT_EQ(WindowFeatureDimension(opts, 4, 4), 12u);
  opts.use_emg = true;
  opts.use_mocap = false;
  EXPECT_EQ(WindowFeatureDimension(opts, 4, 4), 4u);
  opts.emg_feature = EmgFeatureKind::kAr4;
  EXPECT_EQ(WindowFeatureDimension(opts, 4, 4), 16u);
}

TEST(WindowFeaturesTest, RejectsNonPositiveWindowMs) {
  Capture cap = MakeCapture(120);
  WindowFeatureOptions opts;
  opts.window_ms = -100.0;
  auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
  // The message must name the offending field: WindowMsToFrames clamps
  // to one frame, so without this check a negative window would quietly
  // produce 1-frame windows.
  EXPECT_NE(out.status().message().find("window_ms"), std::string::npos)
      << out.status();

  opts.window_ms = 0.0;
  out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(WindowFeaturesTest, RejectsNegativeHopMs) {
  Capture cap = MakeCapture(120);
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  opts.hop_ms = -10.0;
  auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
  EXPECT_NE(out.status().message().find("hop_ms"), std::string::npos)
      << out.status();
}

TEST(WindowFeaturesTest, ProducesExpectedShape) {
  Capture cap = MakeCapture(120);
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;  // 12 frames → 10 windows
  auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->points.rows(), 10u);
  EXPECT_EQ(out->points.cols(), 5u);  // 2 EMG + 3 mocap (1 segment)
  EXPECT_EQ(out->plan.num_windows(), 10u);
}

TEST(WindowFeaturesTest, EmgColumnsAreWindowIav) {
  Capture cap = MakeCapture(120);
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_TRUE(out.ok());
  // Channel 2 is constant 2e-5 → IAV = 12 × 2e-5 per window.
  for (size_t w = 0; w < out->points.rows(); ++w) {
    EXPECT_NEAR(out->points(w, 1), 12.0 * 2e-5, 1e-12);
  }
}

TEST(WindowFeaturesTest, MocapColumnsAreLocalTransformed) {
  // The pelvis offset (100 mm) must not leak into the features: a
  // capture translated by 1 m gives identical features.
  Capture a = MakeCapture(120);
  Capture b = MakeCapture(120);
  for (size_t f = 0; f < 120; ++f) {
    for (size_t m = 0; m < 2; ++m) {
      auto p = b.mocap.MarkerPosition(f, m);
      b.mocap.SetMarkerPosition(f, m,
                                {p[0] + 1000.0, p[1] - 500.0, p[2]});
    }
  }
  WindowFeatureOptions opts;
  auto fa = ExtractWindowFeatures(a.mocap, a.emg, opts);
  auto fb = ExtractWindowFeatures(b.mocap, b.emg, opts);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_TRUE(fa->points.AllClose(fb->points, 1e-9));
}

TEST(WindowFeaturesTest, ModalityToggles) {
  Capture cap = MakeCapture(120);
  WindowFeatureOptions emg_only;
  emg_only.use_mocap = false;
  auto fe = ExtractWindowFeatures(cap.mocap, cap.emg, emg_only);
  ASSERT_TRUE(fe.ok());
  EXPECT_EQ(fe->points.cols(), 2u);

  WindowFeatureOptions mocap_only;
  mocap_only.use_emg = false;
  auto fm = ExtractWindowFeatures(cap.mocap, cap.emg, mocap_only);
  ASSERT_TRUE(fm.ok());
  EXPECT_EQ(fm->points.cols(), 3u);

  WindowFeatureOptions none;
  none.use_emg = false;
  none.use_mocap = false;
  EXPECT_FALSE(ExtractWindowFeatures(cap.mocap, cap.emg, none).ok());
}

TEST(WindowFeaturesTest, EmgOrderPrecedesMocap) {
  // Section 3.3 appends mocap onto EMG: the combined vector's first m
  // entries must be the EMG features.
  Capture cap = MakeCapture(120);
  WindowFeatureOptions opts;
  auto combined = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  WindowFeatureOptions emg_only = opts;
  emg_only.use_mocap = false;
  auto emg = ExtractWindowFeatures(cap.mocap, cap.emg, emg_only);
  ASSERT_TRUE(combined.ok());
  ASSERT_TRUE(emg.ok());
  for (size_t w = 0; w < combined->points.rows(); ++w) {
    EXPECT_DOUBLE_EQ(combined->points(w, 0), emg->points(w, 0));
    EXPECT_DOUBLE_EQ(combined->points(w, 1), emg->points(w, 1));
  }
}

TEST(WindowFeaturesTest, RateMismatchRejected) {
  Capture cap = MakeCapture(120);
  auto bad_emg = EmgRecording::Create(
      {Muscle::kBiceps}, {std::vector<double>(1000, 1e-5)}, 1000.0);
  ASSERT_TRUE(bad_emg.ok());
  EXPECT_TRUE(ExtractWindowFeatures(cap.mocap, *bad_emg,
                                    WindowFeatureOptions{})
                  .status()
                  .IsFailedPrecondition());
}

TEST(WindowFeaturesTest, UsesStreamOverlapWhenLengthsDiffer) {
  Capture cap = MakeCapture(120);
  auto shorter = cap.emg.SampleSlice(0, 110);
  ASSERT_TRUE(shorter.ok());
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  auto out = ExtractWindowFeatures(cap.mocap, *shorter, opts);
  ASSERT_TRUE(out.ok());
  // 110 frames overlap → 9 full windows + right-aligned tail.
  EXPECT_GE(out->points.rows(), 9u);
  for (const auto& span : out->plan.spans) {
    EXPECT_LE(span.end, 110u);
  }
}

TEST(WindowFeaturesTest, TooShortOverlapFails) {
  Capture cap = MakeCapture(8);  // shorter than a 12-frame window
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  EXPECT_FALSE(ExtractWindowFeatures(cap.mocap, cap.emg, opts).ok());
}

TEST(WindowFeaturesTest, OverlappingWindowsViaHop) {
  Capture cap = MakeCapture(120);
  WindowFeatureOptions opts;
  opts.window_ms = 100.0;
  opts.hop_frames = 6;
  auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->points.rows(), 10u);
}

TEST(WindowFeaturesTest, AllValuesFinite) {
  Capture cap = MakeCapture(240);
  for (double window_ms : {50.0, 100.0, 150.0, 200.0}) {
    WindowFeatureOptions opts;
    opts.window_ms = window_ms;
    auto out = ExtractWindowFeatures(cap.mocap, cap.emg, opts);
    ASSERT_TRUE(out.ok());
    for (double v : out->points.data()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

// A capture's pelvis moved from the front of the marker set to the back:
// same trajectories, different layout.
MotionSequence PelvisLast(const MotionSequence& m) {
  std::vector<Segment> order(m.marker_set().segments().begin() + 1,
                             m.marker_set().segments().end());
  order.push_back(Segment::kPelvis);
  Matrix positions(m.num_frames(), 3 * order.size());
  for (size_t j = 0; j < order.size(); ++j) {
    const size_t src = *m.marker_set().IndexOf(order[j]);
    for (size_t f = 0; f < m.num_frames(); ++f) {
      for (size_t k = 0; k < 3; ++k) {
        positions(f, 3 * j + k) = m.positions()(f, 3 * src + k);
      }
    }
  }
  return *MotionSequence::Create(MarkerSet(order), std::move(positions),
                                 m.frame_rate_hz());
}

TEST(WindowFeaturesTest, PelvisLocalTransformMatchesPrelocalizedCapture) {
  // The extractor's built-in pelvis-local transform must be exactly
  // ToPelvisLocal: featurizing a global capture equals, bit for bit,
  // featurizing its ToPelvisLocal image with the transform's heading
  // step off (translating an already-local capture subtracts zeros).
  for (Limb limb : {Limb::kRightHand, Limb::kRightLeg}) {
    DatasetOptions lab;
    lab.limb = limb;
    lab.seed = 20070415;
    lab.heading_range_rad = 2.5;  // make heading normalization matter
    auto trial = GenerateTrial(lab, 3, 0, 11);
    ASSERT_TRUE(trial.ok()) << trial.status();
    auto conditioned = ConditionRecording(trial->emg_raw);
    ASSERT_TRUE(conditioned.ok()) << conditioned.status();
    const MotionSequence layouts[] = {trial->mocap, PelvisLast(trial->mocap)};
    ASSERT_NE(*layouts[1].marker_set().IndexOf(Segment::kPelvis), 0u);
    for (const MotionSequence& global : layouts) {
      for (bool heading : {false, true}) {
        for (FeaturizationMode mode :
             {FeaturizationMode::kExact, FeaturizationMode::kIncremental}) {
          const std::string where =
              std::string(LimbName(limb)) + " pelvis at " +
              std::to_string(*global.marker_set().IndexOf(Segment::kPelvis)) +
              " heading=" + (heading ? "on" : "off") + " mode=" +
              FeaturizationModeName(mode);
          WindowFeatureOptions opts;
          opts.window_ms = 100.0;
          opts.hop_ms = 50.0;
          opts.featurization_mode = mode;
          opts.local_transform.normalize_heading = heading;
          auto direct = ExtractWindowFeatures(global, *conditioned, opts);
          ASSERT_TRUE(direct.ok()) << where << ": " << direct.status();

          auto local = ToPelvisLocal(global, opts.local_transform);
          ASSERT_TRUE(local.ok()) << where << ": " << local.status();
          WindowFeatureOptions plain = opts;
          plain.local_transform.normalize_heading = false;
          auto via_local = ExtractWindowFeatures(*local, *conditioned, plain);
          ASSERT_TRUE(via_local.ok()) << where << ": " << via_local.status();

          const Matrix& a = direct->points;
          const Matrix& b = via_local->points;
          ASSERT_EQ(a.rows(), b.rows()) << where;
          ASSERT_EQ(a.cols(), b.cols()) << where;
          EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                                a.data().size() * sizeof(double)),
                    0)
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mocemg
