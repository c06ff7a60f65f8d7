#include "cluster/fcm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/vector_ops.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Three well-separated Gaussian blobs in 2-D.
Matrix MakeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  Matrix points(3 * per_blob, 2);
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      points(b * per_blob + i, 0) = centers[b][0] + rng.Gaussian(0, 0.5);
      points(b * per_blob + i, 1) = centers[b][1] + rng.Gaussian(0, 0.5);
    }
  }
  return points;
}

TEST(FcmTest, Validations) {
  Matrix pts = MakeBlobs(5, 1);
  FcmOptions opts;
  opts.num_clusters = 0;
  EXPECT_FALSE(FitFcm(pts, opts).ok());
  opts.num_clusters = 100;
  EXPECT_FALSE(FitFcm(pts, opts).ok());
  opts.num_clusters = 3;
  opts.fuzziness = 1.0;
  EXPECT_FALSE(FitFcm(pts, opts).ok());
  opts.fuzziness = 2.0;
  opts.max_iterations = 0;
  EXPECT_FALSE(FitFcm(pts, opts).ok());
  EXPECT_FALSE(FitFcm(Matrix(), FcmOptions{}).ok());
}

TEST(FcmTest, MembershipRowsSumToOne) {
  Matrix pts = MakeBlobs(20, 2);
  FcmOptions opts;
  opts.num_clusters = 3;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok());
  for (size_t k = 0; k < pts.rows(); ++k) {
    double sum = 0.0;
    for (size_t i = 0; i < 3; ++i) {
      const double u = model->memberships(k, i);
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0 + 1e-12);
      sum += u;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(FcmTest, FindsBlobCenters) {
  Matrix pts = MakeBlobs(50, 3);
  FcmOptions opts;
  opts.num_clusters = 3;
  opts.restarts = 3;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok());
  // Every true center must have a fitted center within 1.0.
  const double truth[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (const auto& t : truth) {
    double best = 1e9;
    for (size_t i = 0; i < 3; ++i) {
      best = std::min(best,
                      EuclideanDistance({t[0], t[1]},
                                        model->centers.Row(i)));
    }
    EXPECT_LT(best, 1.0);
  }
}

TEST(FcmTest, ObjectiveDecreasesMonotonically) {
  Matrix pts = MakeBlobs(30, 4);
  FcmOptions opts;
  opts.num_clusters = 3;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok());
  for (size_t i = 1; i < model->objective_history.size(); ++i) {
    EXPECT_LE(model->objective_history[i],
              model->objective_history[i - 1] + 1e-9);
  }
}

TEST(FcmTest, DeterministicForSeed) {
  Matrix pts = MakeBlobs(20, 5);
  FcmOptions opts;
  opts.num_clusters = 3;
  opts.seed = 11;
  auto a = FitFcm(pts, opts);
  auto b = FitFcm(pts, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->centers.AllClose(b->centers, 0.0));
}

TEST(FcmTest, KmeansPlusPlusInitConverges) {
  Matrix pts = MakeBlobs(30, 6);
  FcmOptions opts;
  opts.num_clusters = 3;
  opts.init = FcmInit::kKmeansPlusPlus;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->iterations, 0u);
  EXPECT_LE(model->objective_history.back(),
            model->objective_history.front());
}

TEST(FcmTest, PointsNearCenterHaveHighMembership) {
  Matrix pts = MakeBlobs(50, 7);
  FcmOptions opts;
  opts.num_clusters = 3;
  opts.restarts = 2;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok());
  // Blob points are tight (σ = 0.5) around separated centers: the
  // highest membership of each point should be decisive.
  size_t decisive = 0;
  for (size_t k = 0; k < pts.rows(); ++k) {
    double best = 0.0;
    for (size_t i = 0; i < 3; ++i) {
      best = std::max(best, model->memberships(k, i));
    }
    if (best > 0.8) ++decisive;
  }
  EXPECT_GT(decisive, pts.rows() * 9 / 10);
}

TEST(EvaluateMembershipTest, MatchesPaperEquationNine) {
  // Two centers; a point twice as far from center 1 as from center 0.
  // With m = 2: u_0 = 1 / (1 + (d0/d1)²) = 1 / (1 + 1/4) = 0.8.
  Matrix centers{{0.0, 0.0}, {3.0, 0.0}};
  auto u = EvaluateMembership(centers, {1.0, 0.0}, 2.0);
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR((*u)[0], 0.8, 1e-12);
  EXPECT_NEAR((*u)[1], 0.2, 1e-12);
}

TEST(EvaluateMembershipTest, PointOnCenterIsCrisp) {
  Matrix centers{{0.0, 0.0}, {5.0, 0.0}};
  auto u = EvaluateMembership(centers, {0.0, 0.0});
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ((*u)[0], 1.0);
  EXPECT_DOUBLE_EQ((*u)[1], 0.0);
}

TEST(EvaluateMembershipTest, EquidistantIsUniform) {
  Matrix centers{{-1.0, 0.0}, {1.0, 0.0}};
  auto u = EvaluateMembership(centers, {0.0, 0.0});
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR((*u)[0], 0.5, 1e-12);
  EXPECT_NEAR((*u)[1], 0.5, 1e-12);
}

TEST(EvaluateMembershipTest, HigherFuzzinessIsSofter) {
  Matrix centers{{0.0, 0.0}, {4.0, 0.0}};
  auto sharp = EvaluateMembership(centers, {1.0, 0.0}, 1.5);
  auto soft = EvaluateMembership(centers, {1.0, 0.0}, 4.0);
  ASSERT_TRUE(sharp.ok());
  ASSERT_TRUE(soft.ok());
  EXPECT_GT((*sharp)[0], (*soft)[0]);
}

TEST(EvaluateMembershipTest, Validations) {
  Matrix centers{{0.0, 0.0}};
  EXPECT_FALSE(EvaluateMembership(centers, {1.0, 2.0, 3.0}).ok());
  EXPECT_FALSE(EvaluateMembership(centers, {1.0, 2.0}, 1.0).ok());
  EXPECT_FALSE(EvaluateMembership(Matrix(), {1.0}).ok());
}

TEST(EvaluateMembershipTest, BatchRowsBitIdenticalToSingleEvaluation) {
  // The batch path scores 8-point tiles against each centre and forms
  // a group's rows with the points in lanes; each row must equal the
  // one-point evaluation exactly. Dimensions cover every 4-way unroll
  // remainder; batches of 1-17 rows cover every partial last group, and
  // from 8 rows on row 3 sits on a centre (a crisp row in a full group).
  Rng rng(77);
  for (size_t d : {1, 2, 3, 4, 5, 7, 18, 33}) {
    Matrix centers(4, d);
    for (size_t i = 0; i < centers.rows(); ++i) {
      for (size_t j = 0; j < d; ++j) {
        centers(i, j) = rng.Gaussian(0, 5.0);
      }
    }
    Matrix points(70, d);  // > one E-step tile
    for (size_t k = 0; k < points.rows(); ++k) {
      for (size_t j = 0; j < d; ++j) points(k, j) = rng.Gaussian(0, 5.0);
    }
    for (double m : {1.7, 2.0}) {
      auto batch = EvaluateMembershipBatch(centers, points, m);
      ASSERT_TRUE(batch.ok()) << batch.status();
      for (size_t k = 0; k < points.rows(); ++k) {
        auto single = EvaluateMembership(centers, points.Row(k), m);
        ASSERT_TRUE(single.ok());
        for (size_t i = 0; i < centers.rows(); ++i) {
          EXPECT_EQ((*batch)(k, i), (*single)[i])
              << "dim " << d << " m " << m << " point " << k;
        }
      }
    }
    for (size_t rows = 1; rows <= 17; ++rows) {
      Matrix part(rows, d);
      for (size_t k = 0; k < rows; ++k) part.SetRow(k, points.Row(k));
      if (rows >= 8) part.SetRow(3, centers.Row(2));
      for (double m : {1.7, 2.0}) {
        auto batch = EvaluateMembershipBatch(centers, part, m);
        ASSERT_TRUE(batch.ok()) << batch.status();
        for (size_t k = 0; k < rows; ++k) {
          auto single = EvaluateMembership(centers, part.Row(k), m);
          ASSERT_TRUE(single.ok());
          for (size_t i = 0; i < centers.rows(); ++i) {
            EXPECT_EQ((*batch)(k, i), (*single)[i])
                << "dim " << d << " m " << m << " rows " << rows
                << " point " << k;
          }
        }
      }
    }
  }
}

TEST(EvaluateMembershipTest, BatchValidations) {
  Matrix centers{{0.0, 0.0}};
  EXPECT_FALSE(EvaluateMembershipBatch(centers, Matrix(2, 3)).ok());
  EXPECT_FALSE(EvaluateMembershipBatch(centers, Matrix(2, 2), 1.0).ok());
  Matrix bad(1, 2);
  bad(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(EvaluateMembershipBatch(centers, bad).ok());
}

TEST(EvaluateMembershipTest, TrainingMembershipsConsistentWithEq9) {
  // At convergence the model's U rows equal Eq. 9 evaluated against its
  // centers — the property that makes database and query features
  // comparable.
  Matrix pts = MakeBlobs(20, 9);
  FcmOptions opts;
  opts.num_clusters = 3;
  opts.epsilon = 1e-10;
  opts.max_iterations = 500;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok());
  for (size_t k = 0; k < pts.rows(); k += 7) {
    auto u = EvaluateMembership(model->centers, pts.Row(k));
    ASSERT_TRUE(u.ok());
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR((*u)[i], model->memberships(k, i), 1e-4);
    }
  }
}

// Property sweep over cluster counts: partition constraints hold for any c.
class FcmClusterCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FcmClusterCountTest, PartitionConstraints) {
  const size_t c = GetParam();
  Matrix pts = MakeBlobs(20, 100 + c);
  FcmOptions opts;
  opts.num_clusters = c;
  opts.max_iterations = 100;
  auto model = FitFcm(pts, opts);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->centers.rows(), c);
  for (size_t k = 0; k < pts.rows(); ++k) {
    double sum = 0.0;
    for (size_t i = 0; i < c; ++i) sum += model->memberships(k, i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // All centers finite and inside the data's bounding box (convexity).
  for (size_t i = 0; i < c; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(std::isfinite(model->centers(i, j)));
      EXPECT_GE(model->centers(i, j), -3.0);
      EXPECT_LE(model->centers(i, j), 13.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterCounts, FcmClusterCountTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 40));

TEST(FcmTest, RejectsNonFinitePoints) {
  Matrix pts = MakeBlobs(5, 9);
  pts(7, 1) = std::numeric_limits<double>::quiet_NaN();
  FcmOptions opts;
  opts.num_clusters = 3;
  auto fit = FitFcm(pts, opts);
  ASSERT_FALSE(fit.ok());
  EXPECT_TRUE(fit.status().IsNumericalError()) << fit.status();

  pts(7, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(FitFcm(pts, opts).ok());
}

TEST(FcmTest, MembershipRejectsNonFinitePoint) {
  Matrix pts = MakeBlobs(5, 10);
  FcmOptions opts;
  opts.num_clusters = 3;
  auto fit = FitFcm(pts, opts);
  ASSERT_TRUE(fit.ok()) << fit.status();
  auto u = EvaluateMembership(
      fit->centers, {std::numeric_limits<double>::quiet_NaN(), 0.0},
      opts.fuzziness);
  ASSERT_FALSE(u.ok());
  EXPECT_TRUE(u.status().IsNumericalError()) << u.status();
}

}  // namespace
}  // namespace mocemg
