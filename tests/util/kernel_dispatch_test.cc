#include "util/kernel_dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/distance_kernels.h"
#include "util/quant_kernels.h"
#include "util/random.h"
#include "util/status.h"

namespace mocemg {
namespace {

// Every dim 1..67 covers each unroll remainder of every backend's
// vector width (2, 4, 8 doubles; 16/32/64 bytes) many times over, plus
// the sub-width edge where the main loop never runs.
constexpr size_t kMaxDim = 67;

// Restores the auto-detected backend when a test that forces one exits.
struct ScopedAutoBackend {
  ~ScopedAutoBackend() {
    EXPECT_TRUE(SetKernelBackend(KernelBackend::kAuto).ok());
  }
};

bool BitsEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool BitsEqualF(float a, float b) {
  uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool Contains(const std::vector<KernelBackend>& v, KernelBackend b) {
  return std::find(v.begin(), v.end(), b) != v.end();
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian(0.0, 3.0);
  return v;
}

std::vector<uint8_t> RandomCodes(size_t n, uint32_t levels, Rng* rng) {
  std::vector<uint8_t> v(n);
  for (uint8_t& x : v) {
    x = static_cast<uint8_t>(rng->NextBelow(levels + 1));
  }
  return v;
}

TEST(KernelDispatchTest, NamesParseRoundTrip) {
  for (KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kAvx512, KernelBackend::kNeon}) {
    auto parsed = ParseKernelBackend(KernelBackendName(b));
    ASSERT_TRUE(parsed.ok()) << KernelBackendName(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(ParseKernelBackend("").ok());
  EXPECT_FALSE(ParseKernelBackend("sse9").ok());
  EXPECT_FALSE(ParseKernelBackend("AVX2 ").ok());
}

TEST(KernelDispatchTest, DispatchInfoInvariants) {
  // Scalar is always compiled and always usable, detection never
  // resolves to auto, and the active backend is one the CPU can run.
  const std::vector<KernelBackend> compiled = CompiledKernelBackends();
  const std::vector<KernelBackend> usable = UsableKernelBackends();
  EXPECT_TRUE(Contains(compiled, KernelBackend::kScalar));
  EXPECT_TRUE(Contains(usable, KernelBackend::kScalar));
  for (KernelBackend b : usable) EXPECT_TRUE(Contains(compiled, b));
  EXPECT_FALSE(Contains(compiled, KernelBackend::kAuto));
  const KernelBackend active = ActiveKernelBackend();
  EXPECT_NE(active, KernelBackend::kAuto);
  EXPECT_TRUE(Contains(usable, active));

  const KernelDispatchInfo info = GetKernelDispatchInfo();
  EXPECT_EQ(info.active, KernelBackendName(active));
  EXPECT_NE(info.compiled.find("scalar"), std::string::npos);
  EXPECT_NE(info.usable.find("scalar"), std::string::npos);
  EXPECT_FALSE(info.cpu_features.empty());
}

TEST(KernelDispatchTest, OpsTableLookup) {
  // Every usable backend exposes a fully populated table; kAuto aliases
  // the active one; backends the CPU/build cannot run return nullptr.
  const KernelOps* auto_ops = GetKernelOps(KernelBackend::kAuto);
  ASSERT_NE(auto_ops, nullptr);
  EXPECT_STREQ(auto_ops->name, KernelBackendName(ActiveKernelBackend()));
  const std::vector<KernelBackend> usable = UsableKernelBackends();
  for (KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512,
        KernelBackend::kNeon}) {
    const KernelOps* ops = GetKernelOps(b);
    if (!Contains(usable, b)) {
      EXPECT_EQ(ops, nullptr) << KernelBackendName(b);
      continue;
    }
    ASSERT_NE(ops, nullptr) << KernelBackendName(b);
    EXPECT_STREQ(ops->name, KernelBackendName(b));
    EXPECT_NE(ops->squared_l2_pair, nullptr);
    EXPECT_NE(ops->l2_one_to_many, nullptr);
    EXPECT_NE(ops->l2dot_one_to_many, nullptr);
    EXPECT_NE(ops->ssd8_one_to_many, nullptr);
    EXPECT_NE(ops->ssd4_one_to_many, nullptr);
    EXPECT_NE(ops->l2dot_f32_one_to_many, nullptr);
    EXPECT_NE(ops->row_norms_f32, nullptr);
    EXPECT_NE(ops->l2_gather, nullptr);
    EXPECT_NE(ops->biquad_cascade_lanes, nullptr);
    EXPECT_NE(ops->l2_tiles, nullptr);
    EXPECT_NE(ops->weighted_row_sums, nullptr);
  }
}

TEST(KernelDispatchTest, ForcingUnusableBackendFailsCleanly) {
  ScopedAutoBackend restore;
  const KernelBackend before = ActiveKernelBackend();
  const std::vector<KernelBackend> usable = UsableKernelBackends();
  for (KernelBackend b :
       {KernelBackend::kAvx2, KernelBackend::kAvx512, KernelBackend::kNeon}) {
    if (Contains(usable, b)) continue;
    const Status s = SetKernelBackend(b);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
        << KernelBackendName(b);
    // The active table is unchanged on error.
    EXPECT_EQ(ActiveKernelBackend(), before);
  }
}

TEST(KernelDispatchTest, ForcingScalarTakesEffect) {
  ScopedAutoBackend restore;
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kScalar).ok());
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_STREQ(internal::ActiveKernelOps().name, "scalar");
  const KernelDispatchInfo info = GetKernelDispatchInfo();
  EXPECT_EQ(info.active, "scalar");
}

// The tentpole contract: every backend the CPU can run reproduces the
// scalar reference bit-for-bit on every op, every dim 1..67, and
// varying row counts. Any divergence here means switching backends
// could change a kNN result or pruning decision.
TEST(KernelDispatchTest, AllUsableBackendsMatchScalarBitExactly) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  Rng rng(31);
  for (KernelBackend b : UsableKernelBackends()) {
    if (b == KernelBackend::kScalar) continue;
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; ++d) {
      const size_t rows = 1 + (d * 7) % 13;
      const std::vector<double> q = RandomVector(d, &rng);
      const std::vector<double> block = RandomVector(rows * d, &rng);

      EXPECT_TRUE(BitsEqual(ops->squared_l2_pair(q.data(), block.data(), d),
                            ref->squared_l2_pair(q.data(), block.data(), d)))
          << ops->name << " squared_l2_pair dim " << d;

      std::vector<double> got(rows), want(rows);
      ops->l2_one_to_many(q.data(), block.data(), rows, d, got.data());
      ref->l2_one_to_many(q.data(), block.data(), rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqual(got[r], want[r]))
            << ops->name << " l2_one_to_many dim " << d << " row " << r;
      }

      std::vector<double> norms(rows);
      for (size_t r = 0; r < rows; ++r) {
        norms[r] = SquaredNorm(block.data() + r * d, d);
      }
      const double q_sq = SquaredNorm(q.data(), d);
      ops->l2dot_one_to_many(q.data(), q_sq, block.data(), norms.data(),
                             rows, d, got.data());
      ref->l2dot_one_to_many(q.data(), q_sq, block.data(), norms.data(),
                             rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqual(got[r], want[r]))
            << ops->name << " l2dot_one_to_many dim " << d << " row " << r;
      }

      const std::vector<uint8_t> qc = RandomCodes(d, 255, &rng);
      const std::vector<uint8_t> codes = RandomCodes(rows * d, 255, &rng);
      std::vector<uint32_t> got_ssd(rows), want_ssd(rows);
      ops->ssd8_one_to_many(qc.data(), codes.data(), rows, d, got_ssd.data());
      ref->ssd8_one_to_many(qc.data(), codes.data(), rows, d,
                            want_ssd.data());
      EXPECT_EQ(got_ssd, want_ssd) << ops->name << " ssd8 dim " << d;

      const size_t stride = PackedNibbleStride(d);
      const std::vector<uint8_t> qn = RandomCodes(d, 15, &rng);
      const std::vector<uint8_t> rn = RandomCodes(rows * d, 15, &rng);
      std::vector<uint8_t> qp(stride), rp(rows * stride);
      PackNibbleRows(qn.data(), 1, d, qp.data());
      PackNibbleRows(rn.data(), rows, d, rp.data());
      ops->ssd4_one_to_many(qp.data(), rp.data(), rows, d, got_ssd.data());
      ref->ssd4_one_to_many(qp.data(), rp.data(), rows, d, want_ssd.data());
      EXPECT_EQ(got_ssd, want_ssd) << ops->name << " ssd4 dim " << d;
    }
  }
}

// The fp32 tier inherits the same contract: every usable backend's
// fp32 ops — the dot-form scan and the row norms — reproduce scalar
// bit-for-bit on every dim 1..67. Divergence here would break the
// certified refine gate, whose error bound assumes one specific
// rounding sequence.
TEST(KernelDispatchTest, F32OpsMatchScalarBitExactlyOnEveryBackend) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  Rng rng(34);
  for (KernelBackend b : UsableKernelBackends()) {
    if (b == KernelBackend::kScalar) continue;
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; ++d) {
      const size_t rows = 1 + (d * 7) % 13;
      std::vector<float> q(d), block(rows * d);
      for (float& x : q) x = static_cast<float>(rng.Gaussian(0.0, 3.0));
      for (float& x : block) x = static_cast<float>(rng.Gaussian(0.0, 3.0));

      std::vector<float> got(rows), want(rows);
      std::vector<float> got_norms(rows), want_norms(rows);
      ops->row_norms_f32(block.data(), rows, d, got_norms.data());
      ref->row_norms_f32(block.data(), rows, d, want_norms.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqualF(got_norms[r], want_norms[r]))
            << ops->name << " row_norms_f32 dim " << d << " row " << r;
      }

      float q_sq = 0.0f;
      ref->row_norms_f32(q.data(), 1, d, &q_sq);
      ops->l2dot_f32_one_to_many(q.data(), q_sq, block.data(),
                                 want_norms.data(), rows, d, got.data());
      ref->l2dot_f32_one_to_many(q.data(), q_sq, block.data(),
                                 want_norms.data(), rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqualF(got[r], want[r]))
            << ops->name << " l2dot_f32_one_to_many dim " << d << " row "
            << r;
      }
    }
  }
}

// fp32 specials flow identically too: a NaN or Inf element must
// surface in the fp32 dot-form scan as a non-finite distance on every
// backend (NaN, or Inf when nothing cancels it), so the refine gate's
// NaN-compares-false fallback re-checks the row in double.
TEST(KernelDispatchTest, F32SpecialValuesPropagateOnEveryBackend) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(35);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d : {1, 3, 4, 5, 8, 11, 19}) {
      for (size_t pos = 0; pos < d; ++pos) {
        std::vector<float> x(d), y(d);
        for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 3.0));
        for (float& v : y) v = static_cast<float>(rng.Gaussian(0.0, 3.0));
        float y_sq = 0.0f, x_sq = 0.0f, out = 0.0f;
        ops->row_norms_f32(y.data(), 1, d, &y_sq);
        x[pos] = nan;
        ops->row_norms_f32(x.data(), 1, d, &x_sq);
        EXPECT_TRUE(std::isnan(x_sq))
            << ops->name << " dim " << d << " nan at " << pos;
        ops->l2dot_f32_one_to_many(x.data(), x_sq, y.data(), &y_sq, 1, d,
                                   &out);
        EXPECT_TRUE(std::isnan(out))
            << ops->name << " dim " << d << " nan at " << pos;
        x[pos] = inf;
        ops->row_norms_f32(x.data(), 1, d, &x_sq);
        EXPECT_EQ(x_sq, inf) << ops->name << " dim " << d << " inf at "
                             << pos;
        ops->l2dot_f32_one_to_many(x.data(), x_sq, y.data(), &y_sq, 1, d,
                                   &out);
        EXPECT_FALSE(std::isfinite(out))
            << ops->name << " dim " << d << " inf at " << pos;
      }
    }
  }
}

// NaN and Inf must flow through every backend the way the scalar
// reference flows them — a backend that flushed or reordered specials
// could turn a poisoned row into a plausible distance.
TEST(KernelDispatchTest, SpecialValuesPropagateOnEveryBackend) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(32);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d : {1, 3, 4, 5, 8, 11, 19}) {
      for (size_t pos = 0; pos < d; ++pos) {
        std::vector<double> x = RandomVector(d, &rng);
        const std::vector<double> y = RandomVector(d, &rng);
        x[pos] = nan;
        EXPECT_TRUE(std::isnan(ops->squared_l2_pair(x.data(), y.data(), d)))
            << ops->name << " dim " << d << " nan at " << pos;
        double out = 0.0;
        ops->l2_one_to_many(x.data(), y.data(), 1, d, &out);
        EXPECT_TRUE(std::isnan(out))
            << ops->name << " dim " << d << " nan at " << pos;
        x[pos] = inf;
        EXPECT_EQ(ops->squared_l2_pair(x.data(), y.data(), d), inf)
            << ops->name << " dim " << d << " inf at " << pos;
      }
    }
    // Inf − Inf inside the difference is NaN on every backend.
    const std::vector<double> x = {inf, 1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y = {inf, 0.0, 0.0, 0.0, 0.0};
    EXPECT_TRUE(std::isnan(ops->squared_l2_pair(x.data(), y.data(), 5)))
        << ops->name;
  }
}

// The gather op behind the fp32 tier's refine: on every usable
// backend each gathered row must produce the exact bits of
// squared_l2_pair on that row, for a shuffled index list.
TEST(KernelDispatchTest, L2GatherMatchesPairKernelBitExactly) {
  Rng rng(36);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; d += (d < 12 ? 1 : 7)) {
      const size_t rows = 1 + (d * 7) % 13;
      const std::vector<double> query = RandomVector(d, &rng);
      const std::vector<double> block = RandomVector(rows * d, &rng);
      std::vector<uint32_t> idx;
      for (size_t r = 0; r < rows; ++r) {
        if ((r * 5 + d) % 3 != 0) idx.push_back(uint32_t(rows - 1 - r));
      }
      if (idx.empty()) idx.push_back(0);
      std::vector<double> gout(idx.size());
      ops->l2_gather(query.data(), block.data(), idx.data(), idx.size(), d,
                     gout.data());
      for (size_t i = 0; i < idx.size(); ++i) {
        EXPECT_TRUE(BitsEqual(
            gout[i], ops->squared_l2_pair(query.data(),
                                          block.data() + idx[i] * d, d)))
            << ops->name << " l2_gather dim " << d << " i " << i;
      }
    }
  }
}

// The packed 4-bit scan equals the unpacked integer reference —
// including odd dims, where the pad nibble must contribute exactly 0.
TEST(KernelDispatchTest, Ssd4MatchesUnpackedReferenceOnEveryBackend) {
  Rng rng(33);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; ++d) {
      const size_t rows = 1 + (d * 5) % 11;
      const size_t stride = PackedNibbleStride(d);
      const std::vector<uint8_t> qn = RandomCodes(d, 15, &rng);
      const std::vector<uint8_t> rn = RandomCodes(rows * d, 15, &rng);
      std::vector<uint8_t> qp(stride), rp(rows * stride);
      PackNibbleRows(qn.data(), 1, d, qp.data());
      PackNibbleRows(rn.data(), rows, d, rp.data());
      std::vector<uint32_t> got(rows);
      ops->ssd4_one_to_many(qp.data(), rp.data(), rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        uint32_t want = 0;
        for (size_t j = 0; j < d; ++j) {
          const int32_t diff =
              int32_t(qn[j]) - int32_t(rn[r * d + j]);
          want += uint32_t(diff * diff);
        }
        EXPECT_EQ(got[r], want)
            << ops->name << " dim " << d << " row " << r;
      }
    }
  }
}

// The biquad lane kernel: every usable backend must reproduce the
// scalar reference's bits for lane counts 1-9 (whole four-lane groups
// and every partial group), frame counts 0-300, forward and reverse,
// from a carried nonzero state, with NaN, ±Inf and subnormal samples
// mixed into some cases. A special value must stay in its own lane. NaN
// payloads are not part of the contract (kernel_dispatch.h), so two
// NaNs count as equal. Nothing outside the data may be written.
TEST(KernelDispatchTest, BiquadCascadeLanesMatchScalarBitExactly) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -3.0e-310};
  const auto same = [](double a, double b) {
    return BitsEqual(a, b) || (std::isnan(a) && std::isnan(b));
  };
  constexpr size_t kGuard = 4;
  constexpr double kCanary = 12345.678;
  Rng rng(43);
  for (size_t lanes = 1; lanes <= 9; ++lanes) {
    for (size_t frames = 0; frames <= 300; ++frames) {
      // 1-6 sections: one or two register groups of four.
      const size_t sections = 1 + (frames + lanes) % 6;
      std::vector<double> coeffs(5 * sections);
      for (size_t s = 0; s < sections; ++s) {
        // Poles inside the unit circle keep the finite cases finite.
        const double r = 0.3 + 0.65 * rng.NextDouble();
        const double theta = M_PI * rng.NextDouble();
        coeffs[5 * s] = rng.Gaussian(0.0, 1.0);
        coeffs[5 * s + 1] = rng.Gaussian(0.0, 1.0);
        coeffs[5 * s + 2] = rng.Gaussian(0.0, 1.0);
        coeffs[5 * s + 3] = -2.0 * r * std::cos(theta);
        coeffs[5 * s + 4] = r * r;
      }
      std::vector<double> data(frames * lanes + 2 * kGuard, kCanary);
      for (size_t i = 0; i < frames * lanes; ++i) {
        data[kGuard + i] = rng.Gaussian(0.0, 1.0);
      }
      if (frames % 5 == 2) {
        data[kGuard + rng.NextBelow(frames * lanes)] =
            specials[rng.NextBelow(std::size(specials))];
      }
      std::vector<double> state(2 * sections * lanes);
      for (double& v : state) v = rng.Gaussian(0.0, 0.1);
      if (frames % 7 == 3) state[0] = specials[3];
      for (const bool reverse : {false, true}) {
        std::vector<double> want = data;
        std::vector<double> want_state = state;
        ref->biquad_cascade_lanes(coeffs.data(), sections, want_state.data(),
                                  want.data() + kGuard, frames, lanes,
                                  reverse);
        for (KernelBackend b : UsableKernelBackends()) {
          const KernelOps* ops = GetKernelOps(b);
          ASSERT_NE(ops, nullptr);
          std::vector<double> got = data;
          std::vector<double> got_state = state;
          ops->biquad_cascade_lanes(coeffs.data(), sections, got_state.data(),
                                    got.data() + kGuard, frames, lanes,
                                    reverse);
          const std::string where =
              std::string(ops->name) + " lanes " + std::to_string(lanes) +
              " frames " + std::to_string(frames) + " sections " +
              std::to_string(sections) + (reverse ? " reverse" : " forward");
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(same(got[i], want[i])) << where << " data " << i;
          }
          for (size_t i = 0; i < kGuard; ++i) {
            ASSERT_EQ(got[i], kCanary) << where;
            ASSERT_EQ(got[got.size() - 1 - i], kCanary) << where;
          }
          for (size_t i = 0; i < got_state.size(); ++i) {
            ASSERT_TRUE(same(got_state[i], want_state[i]))
                << where << " state " << i;
          }
        }
      }
    }
  }
}

// The tiled exact scan the f64 index tier runs: on every usable
// backend, each row of a PackL2Tiles copy scores the bits of
// squared_l2_pair on that row. Dims 1-67 meet every remainder of the
// 4-lane accumulation and of the backends' vector widths; 0-37 rows meet
// every partial last tile and the two-tile runs. Specials ride in the
// rows and the query. Slots past `rows` must stay untouched.
TEST(KernelDispatchTest, L2TilesMatchPairKernelBitExactly) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e300,
                             -1e300,
                             std::numeric_limits<double>::denorm_min(),
                             -3.0e-310,
                             -0.0};
  const auto same = [](double a, double b) {
    return BitsEqual(a, b) || (std::isnan(a) && std::isnan(b));
  };
  constexpr double kCanary = 12345.678;
  Rng rng(44);
  for (size_t d = 1; d <= kMaxDim; ++d) {
    for (size_t rows = 0; rows <= 37; ++rows) {
      std::vector<double> query = RandomVector(d, &rng);
      std::vector<double> block = RandomVector(rows * d, &rng);
      if ((d + rows) % 3 == 0) {
        for (double& v : block) {
          if (rng.NextBelow(8) == 0) {
            v = specials[rng.NextBelow(std::size(specials))];
          }
        }
      }
      if ((d + rows) % 5 == 0) {
        query[rng.NextBelow(d)] = specials[rng.NextBelow(std::size(specials))];
      }
      std::vector<double> tiles(L2TilesSize(rows, d));
      PackL2Tiles(block.data(), rows, d, tiles.data());
      for (KernelBackend b : UsableKernelBackends()) {
        const KernelOps* ops = GetKernelOps(b);
        ASSERT_NE(ops, nullptr);
        std::vector<double> out(rows + 1, kCanary);
        ops->l2_tiles(query.data(), tiles.data(), rows, d, out.data());
        const std::string where = std::string(ops->name) + " dim " +
                                  std::to_string(d) + " rows " +
                                  std::to_string(rows);
        for (size_t r = 0; r < rows; ++r) {
          const double want =
              ref->squared_l2_pair(query.data(), block.data() + r * d, d);
          ASSERT_TRUE(same(out[r], want)) << where << " row " << r;
        }
        ASSERT_EQ(out[rows], kCanary) << where;
      }
    }
  }
}

// FCM's M-step sums: on every usable backend, every (centre, dim) sum
// and every total has the scalar entry's bits. Centres 1-40 meet every
// partial centre block of both x86 widths; dims 1-67 every partial dim
// vector and several dim blocks; points 0-70 the empty block too.
// ±0, NaN, ±Inf and subnormals ride in the weights and the coordinates
// of some cases (two NaNs count as equal). Nothing past sums[c·d] or
// totals[c] may be written.
TEST(KernelDispatchTest, WeightedRowSumsMatchScalarBitExactly) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             0.0,
                             -0.0};
  const auto same = [](double a, double b) {
    return BitsEqual(a, b) || (std::isnan(a) && std::isnan(b));
  };
  constexpr double kCanary = 12345.678;
  Rng rng(45);
  for (size_t c = 1; c <= 40; ++c) {
    for (size_t d = 1; d <= kMaxDim; ++d) {
      const size_t rows = (c * 7 + d * 3) % 71;
      std::vector<double> w(rows * c), x = RandomVector(rows * d, &rng);
      for (double& v : w) v = rng.NextDouble();
      if ((c + d) % 4 == 0) {
        for (double& v : w) {
          if (rng.NextBelow(8) == 0) {
            v = specials[rng.NextBelow(std::size(specials))];
          }
        }
        for (double& v : x) {
          if (rng.NextBelow(8) == 0) {
            v = specials[rng.NextBelow(std::size(specials))];
          }
        }
      }
      std::vector<double> want_sums(c * d), want_totals(c);
      ref->weighted_row_sums(w.data(), c, x.data(), d, rows,
                             want_sums.data(), want_totals.data());
      for (KernelBackend b : UsableKernelBackends()) {
        const KernelOps* ops = GetKernelOps(b);
        ASSERT_NE(ops, nullptr);
        std::vector<double> sums(c * d + 1, kCanary), totals(c + 1, kCanary);
        ops->weighted_row_sums(w.data(), c, x.data(), d, rows, sums.data(),
                               totals.data());
        const std::string where = std::string(ops->name) + " c " +
                                  std::to_string(c) + " dim " +
                                  std::to_string(d) + " rows " +
                                  std::to_string(rows);
        for (size_t i = 0; i < c * d; ++i) {
          ASSERT_TRUE(same(sums[i], want_sums[i])) << where << " sum " << i;
        }
        for (size_t i = 0; i < c; ++i) {
          ASSERT_TRUE(same(totals[i], want_totals[i]))
              << where << " total " << i;
        }
        ASSERT_EQ(sums[c * d], kCanary) << where;
        ASSERT_EQ(totals[c], kCanary) << where;
      }
    }
  }
}

}  // namespace
}  // namespace mocemg
