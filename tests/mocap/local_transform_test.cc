#include "mocap/local_transform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "synth/dataset.h"

namespace mocemg {
namespace {

MotionSequence MakeGlobalMotion(double offset_x, double offset_y) {
  MarkerSet set({Segment::kPelvis, Segment::kClavicle, Segment::kHand});
  Matrix positions(5, 9);
  for (size_t f = 0; f < 5; ++f) {
    const double t = static_cast<double>(f);
    // Pelvis wanders.
    positions(f, 0) = offset_x + 2.0 * t;
    positions(f, 1) = offset_y - t;
    positions(f, 2) = 1000.0;
    // Clavicle fixed relative to pelvis.
    positions(f, 3) = positions(f, 0) + 10.0;
    positions(f, 4) = positions(f, 1) + 0.0;
    positions(f, 5) = positions(f, 2) + 550.0;
    // Hand moves relative to pelvis.
    positions(f, 6) = positions(f, 0) + 100.0 + 5.0 * t;
    positions(f, 7) = positions(f, 1) - 200.0;
    positions(f, 8) = positions(f, 2) + 300.0;
  }
  return *MotionSequence::Create(set, std::move(positions), 120.0);
}

TEST(LocalTransformTest, PelvisBecomesOrigin) {
  auto local = ToPelvisLocal(MakeGlobalMotion(500.0, -300.0));
  ASSERT_TRUE(local.ok());
  for (size_t f = 0; f < local->num_frames(); ++f) {
    const auto p = local->MarkerPosition(f, 0);
    EXPECT_DOUBLE_EQ(p[0], 0.0);
    EXPECT_DOUBLE_EQ(p[1], 0.0);
    EXPECT_DOUBLE_EQ(p[2], 0.0);
  }
}

TEST(LocalTransformTest, RemovesGlobalPlacement) {
  // The same relative motion captured at two different places must give
  // identical local coordinates — the paper's motivation for the
  // transform.
  auto a = ToPelvisLocal(MakeGlobalMotion(0.0, 0.0));
  auto b = ToPelvisLocal(MakeGlobalMotion(12345.0, -999.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->positions().AllClose(b->positions(), 1e-9));
}

TEST(LocalTransformTest, RelativeGeometryPreserved) {
  MotionSequence global = MakeGlobalMotion(50.0, 70.0);
  auto local = ToPelvisLocal(global);
  ASSERT_TRUE(local.ok());
  const auto hand = local->MarkerPosition(2, 2);
  const auto hand_global = global.MarkerPosition(2, 2);
  const auto pelvis_global = global.MarkerPosition(2, 0);
  EXPECT_DOUBLE_EQ(hand[0], hand_global[0] - pelvis_global[0]);
  EXPECT_DOUBLE_EQ(hand[1], hand_global[1] - pelvis_global[1]);
  EXPECT_DOUBLE_EQ(hand[2], hand_global[2] - pelvis_global[2]);
}

TEST(LocalTransformTest, FailsWithoutPelvis) {
  // MarkerSet always injects the pelvis, so build a motion whose pelvis
  // column exists; removing it is not expressible — instead verify the
  // transform succeeds for any MarkerSet-constructed motion.
  MarkerSet set({Segment::kHand});
  auto motion = MotionSequence::Create(set, Matrix(3, 6), 120.0);
  ASSERT_TRUE(motion.ok());
  EXPECT_TRUE(ToPelvisLocal(*motion).ok());
}

TEST(LocalTransformTest, HeadingNormalizationAlignsFacingDirections) {
  // Two captures identical up to a rotation about Z must match after
  // heading normalization.
  auto make_rotated = [](double heading) {
    MarkerSet set({Segment::kPelvis, Segment::kClavicle});
    Matrix positions(4, 6);
    const double c = std::cos(heading);
    const double s = std::sin(heading);
    for (size_t f = 0; f < 4; ++f) {
      positions(f, 0) = 0.0;
      positions(f, 1) = 0.0;
      positions(f, 2) = 0.0;
      // Clavicle at (100 + 3t, 40, 20) body-local, rotated by heading.
      const double x = 100.0 + 3.0 * static_cast<double>(f);
      const double y = 40.0;
      positions(f, 3) = c * x - s * y;
      positions(f, 4) = s * x + c * y;
      positions(f, 5) = 20.0;
    }
    return *MotionSequence::Create(set, std::move(positions), 120.0);
  };
  LocalTransformOptions opts;
  opts.normalize_heading = true;
  auto a = ToPelvisLocal(make_rotated(0.0), opts);
  auto b = ToPelvisLocal(make_rotated(2.1), opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->positions().AllClose(b->positions(), 1e-6));
}

TEST(LocalTransformTest, WithoutHeadingNormalizationRotationsDiffer) {
  auto make_rotated = [](double heading) {
    MarkerSet set({Segment::kPelvis, Segment::kClavicle});
    Matrix positions(2, 6);
    const double c = std::cos(heading);
    const double s = std::sin(heading);
    for (size_t f = 0; f < 2; ++f) {
      positions(f, 3) = c * 100.0;
      positions(f, 4) = s * 100.0;
    }
    return *MotionSequence::Create(set, std::move(positions), 120.0);
  };
  auto a = ToPelvisLocal(make_rotated(0.0));
  auto b = ToPelvisLocal(make_rotated(1.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->positions().AllClose(b->positions(), 1.0));
}

// The transform as first written: translate every marker of a copy,
// then estimate the heading from the translated reference marker and
// rotate the copy in a second pass.
MotionSequence TwoPassReference(const MotionSequence& motion,
                                const LocalTransformOptions& options) {
  const MarkerSet& set = motion.marker_set();
  const size_t pelvis = *set.IndexOf(Segment::kPelvis);
  MotionSequence out = motion;
  const size_t frames = motion.num_frames();
  const size_t markers = set.num_markers();
  for (size_t f = 0; f < frames; ++f) {
    const auto origin = motion.MarkerPosition(f, pelvis);
    for (size_t m = 0; m < markers; ++m) {
      const auto p = motion.MarkerPosition(f, m);
      out.SetMarkerPosition(
          f, m, {p[0] - origin[0], p[1] - origin[1], p[2] - origin[2]});
    }
  }
  if (options.normalize_heading && frames > 0 && markers > 1) {
    size_t ref = pelvis == 0 ? 1 : 0;
    auto clav = set.IndexOf(Segment::kClavicle);
    if (clav.ok()) ref = *clav;
    const size_t n = std::min(options.heading_frames, frames);
    double hx = 0.0;
    double hy = 0.0;
    for (size_t f = 0; f < n; ++f) {
      const auto p = out.MarkerPosition(f, ref);
      hx += p[0];
      hy += p[1];
    }
    const double norm = std::hypot(hx, hy);
    if (norm > 1e-9) {
      const double c = hx / norm;
      const double s = hy / norm;
      for (size_t f = 0; f < frames; ++f) {
        for (size_t m = 0; m < markers; ++m) {
          const auto p = out.MarkerPosition(f, m);
          out.SetMarkerPosition(
              f, m, {c * p[0] + s * p[1], -s * p[0] + c * p[1], p[2]});
        }
      }
    }
  }
  return out;
}

// Bitwise equality that counts two NaNs as equal (which NaN an add
// passes on is not part of any contract here).
bool SameValues(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.data().size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

TEST(LocalTransformTest, MatchesTwoPassReferenceBitForBit) {
  for (Limb limb : {Limb::kRightHand, Limb::kRightLeg}) {
    DatasetOptions lab;
    lab.limb = limb;
    lab.seed = 20070415;
    lab.heading_range_rad = 2.5;
    auto trial = GenerateTrial(lab, 2, 0, 5);
    ASSERT_TRUE(trial.ok()) << trial.status();
    // The same capture with its pelvis moved from first to last, so the
    // leg's heading reference (no clavicle) becomes marker 0.
    const MotionSequence& first = trial->mocap;
    std::vector<Segment> order(first.marker_set().segments().begin() + 1,
                               first.marker_set().segments().end());
    order.push_back(Segment::kPelvis);
    Matrix moved(first.num_frames(), first.positions().cols());
    for (size_t f = 0; f < first.num_frames(); ++f) {
      for (size_t c = 3; c < first.positions().cols(); ++c) {
        moved(f, c - 3) = first.positions()(f, c);
      }
      for (size_t k = 0; k < 3; ++k) {
        moved(f, moved.cols() - 3 + k) = first.positions()(f, k);
      }
    }
    auto last = MotionSequence::Create(MarkerSet(order), std::move(moved),
                                       first.frame_rate_hz());
    ASSERT_TRUE(last.ok());
    MotionSequence broken = first;  // non-finite positions pass through
    broken.mutable_positions()(1, 0) = std::nan("");
    broken.mutable_positions()(3, 7) = -INFINITY;
    const MotionSequence* motions[] = {&first, &*last, &broken};
    for (const MotionSequence* motion : motions) {
      for (bool heading : {false, true}) {
        LocalTransformOptions opts;
        opts.normalize_heading = heading;
        auto got = ToPelvisLocal(*motion, opts);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_TRUE(SameValues(got->positions(),
                               TwoPassReference(*motion, opts).positions()))
            << LimbName(limb) << " pelvis at "
            << *motion->marker_set().IndexOf(Segment::kPelvis)
            << " heading=" << heading;
      }
    }
  }
}

}  // namespace
}  // namespace mocemg
