#include "util/distance_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/random.h"

namespace mocemg {
namespace {

// The documented accumulation order, restated independently of the
// header: four lanes over dims stepping 4, remainder dims filling lanes
// 0..2 in order, combined as (a0 + a1) + (a2 + a3). Bit-equality against
// this reference pins the kernel's arithmetic contract.
double PairReference(const double* x, const double* y, size_t d) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  if (i < d) {
    const double d0 = x[i] - y[i];
    a0 += d0 * d0;
  }
  if (i + 1 < d) {
    const double d1 = x[i + 1] - y[i + 1];
    a1 += d1 * d1;
  }
  if (i + 2 < d) {
    const double d2 = x[i + 2] - y[i + 2];
    a2 += d2 * d2;
  }
  return (a0 + a1) + (a2 + a3);
}

// Plain sequential scalar loop — the pre-kernel arithmetic. The 4-lane
// kernel reassociates, so agreement is tolerance-based, not bitwise.
double ScalarReference(const double* x, const double* y, size_t d) {
  double sum = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = x[i] - y[i];
    sum += diff * diff;
  }
  return sum;
}

std::vector<double> RandomVector(size_t d, Rng* rng) {
  std::vector<double> v(d);
  for (double& x : v) x = rng->Gaussian(0.0, 3.0);
  return v;
}

// Every dim 1..67 covers each 4-way unroll remainder (0..3) many times
// over, plus the d < 4 edge where the main loop never runs.
constexpr size_t kMaxDim = 67;

TEST(DistanceKernelsTest, PairMatchesDocumentedOrderBitExactly) {
  Rng rng(21);
  for (size_t d = 1; d <= kMaxDim; ++d) {
    const std::vector<double> x = RandomVector(d, &rng);
    const std::vector<double> y = RandomVector(d, &rng);
    const double got = SquaredL2(x.data(), y.data(), d);
    const double want = PairReference(x.data(), y.data(), d);
    EXPECT_EQ(got, want) << "dim " << d;
  }
}

TEST(DistanceKernelsTest, PairMatchesScalarWithinTolerance) {
  Rng rng(22);
  for (size_t d = 1; d <= kMaxDim; ++d) {
    const std::vector<double> x = RandomVector(d, &rng);
    const std::vector<double> y = RandomVector(d, &rng);
    const double got = SquaredL2(x.data(), y.data(), d);
    const double want = ScalarReference(x.data(), y.data(), d);
    EXPECT_NEAR(got, want, 1e-10 * (1.0 + want)) << "dim " << d;
  }
}

TEST(DistanceKernelsTest, OneToManyRowsMatchPairKernelBitExactly) {
  Rng rng(23);
  for (size_t d = 1; d <= kMaxDim; ++d) {
    const size_t rows = 1 + (d * 7) % 13;
    const std::vector<double> q = RandomVector(d, &rng);
    const std::vector<double> block = RandomVector(rows * d, &rng);
    std::vector<double> out(rows);
    SquaredL2OneToMany(q.data(), block.data(), rows, d, out.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], SquaredL2(q.data(), block.data() + r * d, d))
          << "dim " << d << " row " << r;
    }
  }
}

TEST(DistanceKernelsTest, ManyToManyMatchesPairKernelBitExactly) {
  Rng rng(24);
  // Enough rows to cross the internal row tile at small dims, and odd
  // strides via out_stride == rows.
  for (size_t d : {1, 2, 3, 4, 5, 7, 16, 33, 67}) {
    const size_t nq = 5;
    const size_t rows = 300;  // > kernel row tile
    const std::vector<double> queries = RandomVector(nq * d, &rng);
    const std::vector<double> block = RandomVector(rows * d, &rng);
    std::vector<double> out(nq * rows);
    SquaredL2ManyToMany(queries.data(), nq, block.data(), rows, d,
                        out.data(), rows);
    for (size_t q = 0; q < nq; ++q) {
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(out[q * rows + r],
                  SquaredL2(queries.data() + q * d,
                            block.data() + r * d, d))
            << "dim " << d << " query " << q << " row " << r;
      }
    }
  }
}

TEST(DistanceKernelsTest, DotFormWithinDocumentedErrorBound) {
  Rng rng(26);
  for (size_t d = 1; d <= kMaxDim; ++d) {
    const size_t rows = 16;
    const std::vector<double> q = RandomVector(d, &rng);
    const std::vector<double> block = RandomVector(rows * d, &rng);
    std::vector<double> norms(rows);
    for (size_t r = 0; r < rows; ++r) {
      norms[r] = SquaredNorm(block.data() + r * d, d);
    }
    const double q_sq = SquaredNorm(q.data(), d);
    double max_norm_sq = 0.0;
    for (double n : norms) max_norm_sq = std::max(max_norm_sq, n);
    std::vector<double> dot_form(rows);
    SquaredL2DotOneToMany(q.data(), q_sq, block.data(), norms.data(),
                          rows, d, dot_form.data());
    const double bound = DotFormErrorBound(d, q_sq, max_norm_sq);
    for (size_t r = 0; r < rows; ++r) {
      const double exact = SquaredL2(q.data(), block.data() + r * d, d);
      EXPECT_LE(std::fabs(dot_form[r] - exact), bound)
          << "dim " << d << " row " << r;
    }
  }
}

TEST(DistanceKernelsTest, NanPropagatesLikeScalarLoop) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(27);
  for (size_t d : {1, 3, 4, 5, 8, 11}) {
    for (size_t pos = 0; pos < d; ++pos) {
      std::vector<double> x = RandomVector(d, &rng);
      const std::vector<double> y = RandomVector(d, &rng);
      x[pos] = nan;
      const double scalar = ScalarReference(x.data(), y.data(), d);
      const double kernel = SquaredL2(x.data(), y.data(), d);
      EXPECT_TRUE(std::isnan(scalar));
      EXPECT_TRUE(std::isnan(kernel))
          << "dim " << d << " nan at " << pos;
      std::vector<double> out(1);
      SquaredL2OneToMany(x.data(), y.data(), 1, d, out.data());
      EXPECT_TRUE(std::isnan(out[0]));
    }
  }
}

TEST(DistanceKernelsTest, InfPropagatesLikeScalarLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(28);
  for (size_t d : {1, 2, 4, 6, 9}) {
    for (size_t pos = 0; pos < d; ++pos) {
      std::vector<double> x = RandomVector(d, &rng);
      const std::vector<double> y = RandomVector(d, &rng);
      x[pos] = inf;
      const double scalar = ScalarReference(x.data(), y.data(), d);
      const double kernel = SquaredL2(x.data(), y.data(), d);
      EXPECT_EQ(scalar, inf);
      EXPECT_EQ(kernel, inf) << "dim " << d << " inf at " << pos;
    }
  }
}

TEST(DistanceKernelsTest, OpposedInfinitiesYieldNanLikeScalarLoop) {
  // Inf − Inf inside the difference is NaN in both formulations.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x = {inf, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {inf, 0.0, 0.0, 0.0, 0.0};
  const double scalar = ScalarReference(x.data(), y.data(), x.size());
  const double kernel = SquaredL2(x.data(), y.data(), x.size());
  EXPECT_TRUE(std::isnan(scalar));
  EXPECT_TRUE(std::isnan(kernel));
}

TEST(DistanceKernelsTest, ZeroDimensionIsZero) {
  const double x = 1.0, y = 2.0;
  EXPECT_EQ(SquaredL2(&x, &y, 0), 0.0);
  EXPECT_EQ(SquaredNorm(&x, 0), 0.0);
  EXPECT_EQ(DotProduct(&x, &y, 0), 0.0);
}

// The certification at the heart of the fp32 tier: for rows admitted
// by the norm gate, the fp32 dot-form distance never strays from the
// exact double distance by more than Float32DotFormErrorBound. Swept
// over every dim 1..67 and scales from 1e-6 to 1e6, plus mixed-scale
// rows — the regimes where fp32 cancellation is worst.
TEST(DistanceKernelsTest, Float32DotFormErrorBoundIsConservative) {
  Rng rng(40);
  for (size_t d = 1; d <= 67; ++d) {
    for (double scale : {1e-6, 1.0, 1e6}) {
      const size_t rows = 1 + (d * 5) % 9;
      std::vector<double> q(d), block(rows * d);
      for (double& v : q) v = rng.Gaussian(0.0, scale);
      for (size_t i = 0; i < block.size(); ++i) {
        // Mixed per-element scales stress cancellation.
        block[i] = rng.Gaussian(0.0, (i % 3 == 0) ? scale : scale * 1e-3);
      }
      std::vector<float> qf(d), blockf(rows * d);
      for (size_t i = 0; i < d; ++i) qf[i] = static_cast<float>(q[i]);
      for (size_t i = 0; i < block.size(); ++i) {
        blockf[i] = static_cast<float>(block[i]);
      }
      std::vector<float> norms_f32(rows), dist_f32(rows);
      RowSquaredNormsF32(blockf.data(), rows, d, norms_f32.data());
      const float q_sq_f32 = SquaredNormF32(qf.data(), d);
      SquaredL2DotF32OneToMany(qf.data(), q_sq_f32, blockf.data(),
                               norms_f32.data(), rows, d, dist_f32.data());
      const double q_sq = SquaredNorm(q.data(), d);
      double max_norm_sq = 0.0, max_abs = 0.0;
      for (size_t r = 0; r < rows; ++r) {
        max_norm_sq =
            std::max(max_norm_sq, SquaredNorm(block.data() + r * d, d));
      }
      for (double v : block) max_abs = std::max(max_abs, std::fabs(v));
      const double bound =
          Float32DotFormErrorBound(d, q_sq, max_norm_sq, max_abs);
      ASSERT_GT(bound, 0.0);
      for (size_t r = 0; r < rows; ++r) {
        const double exact = SquaredL2(q.data(), block.data() + r * d, d);
        EXPECT_LE(std::fabs(static_cast<double>(dist_f32[r]) - exact),
                  bound)
            << "dim " << d << " scale " << scale << " row " << r;
      }
    }
  }
}

// Subnormal and near-gate magnitudes: the bound's λ terms must absorb
// flush-to-zero-scale values, and the largest magnitudes the pack gate
// admits must not overflow the bound into NaN.
TEST(DistanceKernelsTest, Float32ErrorBoundHandlesExtremes) {
  const double kTiny = 1e-30;    // narrows to fp32 subnormal territory
  const double kLarge = 1e14;    // norms_sq ~1e28, inside the 1e30 gate
  for (size_t d : {1, 2, 3, 4, 7, 16, 33}) {
    std::vector<double> q(d), row(d);
    for (size_t i = 0; i < d; ++i) {
      q[i] = (i % 2 == 0) ? kTiny : kLarge / std::sqrt(double(d));
      row[i] = (i % 2 == 0) ? -kLarge / std::sqrt(double(d)) : kTiny;
    }
    std::vector<float> qf(d), rowf(d);
    for (size_t i = 0; i < d; ++i) {
      qf[i] = static_cast<float>(q[i]);
      rowf[i] = static_cast<float>(row[i]);
    }
    float norm_f32 = 0.0f, dist_f32 = 0.0f;
    RowSquaredNormsF32(rowf.data(), 1, d, &norm_f32);
    SquaredL2DotF32OneToMany(qf.data(), SquaredNormF32(qf.data(), d),
                             rowf.data(), &norm_f32, 1, d, &dist_f32);
    const double q_sq = SquaredNorm(q.data(), d);
    const double norm_sq = SquaredNorm(row.data(), d);
    double max_abs = 0.0;
    for (double v : row) max_abs = std::max(max_abs, std::fabs(v));
    const double bound =
        Float32DotFormErrorBound(d, q_sq, norm_sq, max_abs);
    ASSERT_TRUE(std::isfinite(bound)) << "dim " << d;
    const double exact = SquaredL2(q.data(), row.data(), d);
    EXPECT_LE(std::fabs(static_cast<double>(dist_f32) - exact), bound)
        << "dim " << d;
  }
}

TEST(DistanceKernelsTest, F32ZeroDimensionIsZero) {
  const float x = 1.0f, y = 2.0f;
  EXPECT_EQ(SquaredNormF32(&x, 0), 0.0f);
  EXPECT_EQ(DotProductF32(&x, &y, 0), 0.0f);
}

}  // namespace
}  // namespace mocemg
