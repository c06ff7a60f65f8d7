#include "signal/biquad.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace mocemg {
namespace {

TEST(BiquadTest, IdentityCoefficientsPassThrough) {
  Biquad b;  // default: b0=1, rest 0
  EXPECT_DOUBLE_EQ(b.Process(3.5), 3.5);
  EXPECT_DOUBLE_EQ(b.Process(-1.0), -1.0);
}

TEST(BiquadTest, PureGain) {
  BiquadCoefficients c;
  c.b0 = 2.0;
  Biquad b(c);
  EXPECT_DOUBLE_EQ(b.Process(1.5), 3.0);
}

TEST(BiquadTest, OneSampleDelay) {
  BiquadCoefficients c;
  c.b0 = 0.0;
  c.b1 = 1.0;
  Biquad b(c);
  EXPECT_DOUBLE_EQ(b.Process(7.0), 0.0);
  EXPECT_DOUBLE_EQ(b.Process(0.0), 7.0);
}

TEST(BiquadTest, ResetClearsState) {
  BiquadCoefficients c;
  c.b1 = 1.0;
  c.b0 = 0.0;
  Biquad b(c);
  b.Process(5.0);
  b.Reset();
  EXPECT_DOUBLE_EQ(b.Process(0.0), 0.0);
}

TEST(BiquadTest, MagnitudeOfIdentityIsUnity) {
  Biquad b;
  EXPECT_NEAR(b.MagnitudeAt(0.1), 1.0, 1e-12);
  EXPECT_NEAR(b.MagnitudeAt(2.0), 1.0, 1e-12);
}

TEST(BiquadCascadeTest, EmptyCascadeIsIdentity) {
  BiquadCascade c;
  EXPECT_DOUBLE_EQ(c.Process(2.5), 2.5);
  EXPECT_NEAR(c.MagnitudeAt(1.0), 1.0, 1e-12);
}

TEST(BiquadCascadeTest, ProcessSignalMatchesSampleBySample) {
  BiquadCoefficients c;
  c.b0 = 0.5;
  c.b1 = 0.5;
  BiquadCascade cascade({c});
  std::vector<double> in{1, 2, 3, 4};
  auto out = cascade.ProcessSignal(in);
  BiquadCascade fresh({c});
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], fresh.Process(in[i]));
  }
}

TEST(BiquadCascadeTest, CascadeMagnitudeIsProduct) {
  BiquadCoefficients c;
  c.b0 = 0.5;
  BiquadCascade one({c});
  BiquadCascade two({c, c});
  EXPECT_NEAR(two.MagnitudeAt(0.3), one.MagnitudeAt(0.3) * 0.5, 1e-12);
}

TEST(BiquadCascadeTest, FiltFiltEmptyInput) {
  BiquadCascade c;
  EXPECT_TRUE(c.FiltFilt({}).empty());
}

TEST(BiquadCascadeTest, FiltFiltPreservesLength) {
  BiquadCoefficients coeffs;
  coeffs.b0 = 0.25;
  coeffs.b1 = 0.5;
  coeffs.b2 = 0.25;
  BiquadCascade c({coeffs});
  std::vector<double> in(500, 0.0);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(0.02 * static_cast<double>(i));
  }
  auto out = c.FiltFilt(in);
  EXPECT_EQ(out.size(), in.size());
}

TEST(BiquadCascadeTest, FiltFiltIsZeroPhaseForSlowSine) {
  // A gentle low-pass shifts a forward-filtered sine; filtfilt must not.
  BiquadCoefficients coeffs;
  coeffs.b0 = 0.2;
  coeffs.b1 = 0.2;
  coeffs.a1 = -0.6;
  BiquadCascade c({coeffs});
  const size_t n = 2000;
  std::vector<double> in(n);
  const double w = 2.0 * M_PI * 0.01;  // slow sine
  for (size_t i = 0; i < n; ++i) in[i] = std::sin(w * i);
  auto out = c.FiltFilt(in);
  // Compare mid-signal against a scaled version of the input: the
  // correlation peak must be at zero lag.
  double best_corr = -1e9;
  int best_lag = 0;
  for (int lag = -10; lag <= 10; ++lag) {
    double corr = 0.0;
    for (size_t i = 500; i < 1500; ++i) {
      corr += in[i] * out[static_cast<size_t>(static_cast<int>(i) + lag)];
    }
    if (corr > best_corr) {
      best_corr = corr;
      best_lag = lag;
    }
  }
  EXPECT_EQ(best_lag, 0);
}

// Five stable RBJ low-pass sections at assorted cutoffs and Qs: more
// than one register group of the lane kernel (four sections).
std::vector<BiquadCoefficients> TestSections() {
  std::vector<BiquadCoefficients> sections;
  for (const auto& [fc, q] : std::vector<std::pair<double, double>>{
           {0.05, 0.54}, {0.12, 1.3}, {0.2, 0.7}, {0.31, 2.0}, {0.4, 0.6}}) {
    const double w0 = 2.0 * M_PI * fc;
    const double alpha = std::sin(w0) / (2.0 * q);
    const double a0 = 1.0 + alpha;
    BiquadCoefficients c;
    c.b0 = (1.0 - std::cos(w0)) / 2.0 / a0;
    c.b1 = (1.0 - std::cos(w0)) / a0;
    c.b2 = c.b0;
    c.a1 = -2.0 * std::cos(w0) / a0;
    c.a2 = (1.0 - alpha) / a0;
    sections.push_back(c);
  }
  return sections;
}

std::vector<double> Noise(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  return v;
}

// Each section's Biquad::Process over the whole signal, in turn.
std::vector<double> ChainReference(const std::vector<BiquadCoefficients>& s,
                                   std::vector<double> x) {
  for (const BiquadCoefficients& c : s) {
    Biquad b(c);
    for (double& v : x) v = b.Process(v);
  }
  return x;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(BiquadCascadeTest, ProcessSignalMatchesBiquadChainBitForBit) {
  const std::vector<BiquadCoefficients> sections = TestSections();
  const std::vector<double> in = Noise(1000, 5);
  BiquadCascade cascade(sections);
  EXPECT_TRUE(SameBits(cascade.ProcessSignal(in),
                       ChainReference(sections, in)));
  // The state carries over between calls: two halves equal the whole.
  cascade.Reset();
  const std::vector<double> head(in.begin(), in.begin() + 400);
  const std::vector<double> tail(in.begin() + 400, in.end());
  std::vector<double> joined = cascade.ProcessSignal(head);
  const std::vector<double> rest = cascade.ProcessSignal(tail);
  joined.insert(joined.end(), rest.begin(), rest.end());
  EXPECT_TRUE(SameBits(joined, ChainReference(sections, in)));
}

TEST(BiquadCascadeTest, FiltFiltMatchesReferenceBitForBit) {
  // Reference: reflect-pad by min(n − 1, 256), run the sections
  // forward, then over the reversed result, reverse back, trim.
  const std::vector<BiquadCoefficients> sections = TestSections();
  const BiquadCascade cascade(sections);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{100},
                   size_t{257}, size_t{258}, size_t{700}}) {
    const std::vector<double> in = Noise(n, n);
    const size_t pad = std::min<size_t>(n - 1, 256);
    std::vector<double> padded;
    for (size_t i = pad; i > 0; --i) padded.push_back(2.0 * in[0] - in[i]);
    padded.insert(padded.end(), in.begin(), in.end());
    for (size_t i = 1; i <= pad; ++i) {
      padded.push_back(2.0 * in[n - 1] - in[n - 1 - i]);
    }
    std::vector<double> once = ChainReference(sections, padded);
    std::reverse(once.begin(), once.end());
    std::vector<double> twice = ChainReference(sections, once);
    std::reverse(twice.begin(), twice.end());
    const std::vector<double> want(
        twice.begin() + static_cast<ptrdiff_t>(pad),
        twice.begin() + static_cast<ptrdiff_t>(pad + n));
    EXPECT_TRUE(SameBits(cascade.FiltFilt(in), want)) << "n " << n;
  }
}

TEST(BiquadCascadeTest, LanesMatchSingleLaneBitForBit) {
  const std::vector<BiquadCoefficients> sections = TestSections();
  const BiquadCascade cascade(sections);
  const size_t pad = BiquadCascade::kFiltFiltPad;
  for (size_t lanes = 1; lanes <= 6; ++lanes) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{257}, size_t{700}}) {
      std::vector<std::vector<double>> signals;
      std::vector<double> interleaved(n * lanes);
      std::vector<double> padded((n + 2 * pad) * lanes);
      for (size_t l = 0; l < lanes; ++l) {
        signals.push_back(Noise(n, 100 * lanes + l + n));
        for (size_t f = 0; f < n; ++f) {
          interleaved[f * lanes + l] = signals[l][f];
          padded[(pad + f) * lanes + l] = signals[l][f];
        }
      }
      // Forward in two calls (state carried), reverse in one.
      std::vector<double> fwd = interleaved;
      std::vector<double> state(2 * sections.size() * lanes, 0.0);
      cascade.ProcessLanes(fwd.data(), n / 2, lanes, state.data());
      cascade.ProcessLanes(fwd.data() + (n / 2) * lanes, n - n / 2, lanes,
                           state.data());
      std::vector<double> rev = interleaved;
      std::fill(state.begin(), state.end(), 0.0);
      cascade.ProcessLanes(rev.data(), n, lanes, state.data(),
                           /*reverse=*/true);
      cascade.FiltFiltLanes(padded.data() + pad * lanes, n, lanes);
      for (size_t l = 0; l < lanes; ++l) {
        std::vector<double> got_fwd(n), got_rev(n), got_ff(n);
        for (size_t f = 0; f < n; ++f) {
          got_fwd[f] = fwd[f * lanes + l];
          got_rev[n - 1 - f] = rev[f * lanes + l];
          got_ff[f] = padded[(pad + f) * lanes + l];
        }
        std::vector<double> reversed(signals[l].rbegin(), signals[l].rend());
        const std::string where =
            "lanes " + std::to_string(lanes) + " n " + std::to_string(n) +
            " lane " + std::to_string(l);
        EXPECT_TRUE(SameBits(got_fwd, ChainReference(sections, signals[l])))
            << where;
        EXPECT_TRUE(SameBits(got_rev, ChainReference(sections, reversed)))
            << where;
        EXPECT_TRUE(SameBits(got_ff, cascade.FiltFilt(signals[l]))) << where;
      }
    }
  }
}

}  // namespace
}  // namespace mocemg
