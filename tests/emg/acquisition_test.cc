#include "emg/acquisition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "signal/butterworth.h"
#include "signal/rectify.h"
#include "signal/resample.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace mocemg {
namespace {

EmgRecording MakeRawRecording(double fs = 1000.0, double seconds = 2.0) {
  Rng rng(42);
  const size_t n = static_cast<size_t>(fs * seconds);
  std::vector<double> ch(n);
  for (size_t i = 0; i < n; ++i) {
    // Band-limited-ish content: 100 Hz tone + noise + DC offset.
    ch[i] = 1e-5 * std::sin(2.0 * M_PI * 100.0 * i / fs) +
            2e-6 * rng.NextGaussian() + 5e-6;
  }
  return *EmgRecording::Create({Muscle::kBiceps}, {std::move(ch)}, fs);
}

TEST(AcquisitionTest, OutputRateMatchesOption) {
  auto out = ConditionRecording(MakeRawRecording());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_DOUBLE_EQ(out->sample_rate_hz(), 120.0);
  // ~2 s at 120 Hz.
  EXPECT_NEAR(static_cast<double>(out->num_samples()), 240.0, 4.0);
}

TEST(AcquisitionTest, OutputIsNonNegative) {
  auto out = ConditionRecording(MakeRawRecording());
  ASSERT_TRUE(out.ok());
  for (double v : out->channel(0)) EXPECT_GE(v, 0.0);
}

TEST(AcquisitionTest, PreservesChannelCountAndLabels) {
  Rng rng(1);
  std::vector<double> a(1000);
  std::vector<double> b(1000);
  for (size_t i = 0; i < 1000; ++i) {
    a[i] = rng.Gaussian(0.0, 1e-5);
    b[i] = rng.Gaussian(0.0, 1e-5);
  }
  auto raw = EmgRecording::Create({Muscle::kFrontShin, Muscle::kBackShin},
                                  {a, b}, 1000.0);
  ASSERT_TRUE(raw.ok());
  auto out = ConditionRecording(*raw);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_channels(), 2u);
  EXPECT_EQ(out->muscles()[1], Muscle::kBackShin);
}

TEST(AcquisitionTest, RemovesDcOffset) {
  // A pure DC signal is outside the 20–450 Hz band: the conditioned
  // envelope must be near zero.
  std::vector<double> dc(2000, 1e-4);
  auto raw = EmgRecording::Create({Muscle::kBiceps}, {dc}, 1000.0);
  ASSERT_TRUE(raw.ok());
  auto out = ConditionRecording(*raw);
  ASSERT_TRUE(out.ok());
  double mean = 0.0;
  // Skip the filter transient at the head.
  for (size_t i = 60; i < out->num_samples(); ++i) {
    mean += out->channel(0)[i];
  }
  mean /= static_cast<double>(out->num_samples() - 60);
  EXPECT_LT(mean, 2e-6);
}

TEST(AcquisitionTest, ActivityScalesEnvelope) {
  // A strong in-band burst must produce a larger envelope than silence.
  const double fs = 1000.0;
  const size_t n = 3000;
  Rng rng(3);
  std::vector<double> ch(n, 0.0);
  for (size_t i = n / 3; i < 2 * n / 3; ++i) {
    ch[i] = 5e-5 * rng.NextGaussian();
  }
  auto raw = EmgRecording::Create({Muscle::kBiceps}, {ch}, fs);
  ASSERT_TRUE(raw.ok());
  auto out = ConditionRecording(*raw);
  ASSERT_TRUE(out.ok());
  const auto& env = out->channel(0);
  const size_t m = env.size();
  double quiet = 0.0;
  double active = 0.0;
  for (size_t i = 10; i < m / 4; ++i) quiet += env[i];
  for (size_t i = 2 * m / 5; i < 3 * m / 5; ++i) active += env[i];
  quiet /= static_cast<double>(m / 4 - 10);
  active /= static_cast<double>(3 * m / 5 - 2 * m / 5);
  EXPECT_GT(active, 5.0 * quiet);
}

TEST(AcquisitionTest, NotchSuppressesPowerLineHum) {
  // Same in-band burst, once clean and once with strong 60 Hz hum: the
  // notched conditioning of the contaminated signal should land close
  // to the clean envelope, un-notched should not.
  const double fs = 1000.0;
  const size_t n = 3000;
  Rng rng(9);
  std::vector<double> clean(n);
  for (size_t i = 0; i < n; ++i) clean[i] = 3e-5 * rng.NextGaussian();
  std::vector<double> hummed = clean;
  for (size_t i = 0; i < n; ++i) {
    hummed[i] += 1e-4 * std::sin(2.0 * M_PI * 60.0 * i / fs);
  }
  auto make = [&](const std::vector<double>& ch) {
    return *EmgRecording::Create({Muscle::kBiceps}, {ch}, fs);
  };
  AcquisitionOptions notch;
  notch.notch_hz = 60.0;
  auto clean_env = ConditionRecording(make(clean));
  auto notched_env = ConditionRecording(make(hummed), notch);
  auto raw_env = ConditionRecording(make(hummed));
  ASSERT_TRUE(clean_env.ok());
  ASSERT_TRUE(notched_env.ok());
  ASSERT_TRUE(raw_env.ok());
  double err_notched = 0.0;
  double err_raw = 0.0;
  const size_t m = clean_env->num_samples();
  for (size_t i = m / 4; i < 3 * m / 4; ++i) {
    err_notched += std::fabs(notched_env->channel(0)[i] -
                             clean_env->channel(0)[i]);
    err_raw +=
        std::fabs(raw_env->channel(0)[i] - clean_env->channel(0)[i]);
  }
  EXPECT_LT(err_notched, 0.4 * err_raw);
}

TEST(AcquisitionTest, SkipBandpassOption) {
  AcquisitionOptions opts;
  opts.skip_bandpass = true;
  auto out = ConditionRecording(MakeRawRecording(), opts);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->sample_rate_hz(), 120.0);
}

TEST(AcquisitionTest, RejectsBandAboveNyquist) {
  AcquisitionOptions opts;
  opts.band_high_hz = 600.0;  // above 500 Hz Nyquist of 1 kHz input
  auto out = ConditionRecording(MakeRawRecording(), opts);
  ASSERT_FALSE(out.ok());
  // The error must teach, not just reject: name Nyquist and aliasing.
  EXPECT_NE(out.status().message().find("Nyquist"), std::string::npos)
      << out.status();
  EXPECT_NE(out.status().message().find("alias"), std::string::npos)
      << out.status();
}

TEST(AcquisitionTest, RejectsInvertedBandEdges) {
  AcquisitionOptions opts;
  opts.band_low_hz = 300.0;
  opts.band_high_hz = 100.0;
  auto out = ConditionRecording(MakeRawRecording(), opts);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("low < high"), std::string::npos)
      << out.status();

  opts.band_low_hz = -5.0;
  opts.band_high_hz = 450.0;
  EXPECT_FALSE(ConditionRecording(MakeRawRecording(), opts).ok());
}

TEST(AcquisitionTest, RejectsNotchAtOrAboveNyquist) {
  AcquisitionOptions opts;
  opts.notch_hz = 500.0;  // exactly Nyquist of the 1 kHz input
  auto out = ConditionRecording(MakeRawRecording(), opts);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("Nyquist"), std::string::npos)
      << out.status();

  // A 60 Hz notch on a 100 Hz recording is equally meaningless.
  opts.notch_hz = 60.0;
  opts.skip_bandpass = true;
  EXPECT_FALSE(
      ConditionRecording(MakeRawRecording(/*fs=*/100.0), opts).ok());
}

TEST(AcquisitionTest, NotchWarmStartTamesStartupTransient) {
  // The notch startup transient decays over Q/(π·f0) ≈ 0.19 s; without
  // the phase-continuous warm start the first windows of a short
  // recording stay hum-contaminated. Check the HEAD of the envelope
  // (the part NotchSuppressesPowerLineHum skips) tracks the clean one.
  const double fs = 1000.0;
  const size_t n = 3000;
  Rng rng(17);
  std::vector<double> clean(n);
  for (size_t i = 0; i < n; ++i) clean[i] = 3e-5 * rng.NextGaussian();
  std::vector<double> hummed = clean;
  for (size_t i = 0; i < n; ++i) {
    hummed[i] += 4e-4 * std::sin(2.0 * M_PI * 50.0 * i / fs);
  }
  auto make = [&](const std::vector<double>& ch) {
    return *EmgRecording::Create({Muscle::kBiceps}, {ch}, fs);
  };
  AcquisitionOptions notch;
  notch.notch_hz = 50.0;
  auto clean_env = ConditionRecording(make(clean));
  auto notched_env = ConditionRecording(make(hummed), notch);
  ASSERT_TRUE(clean_env.ok());
  ASSERT_TRUE(notched_env.ok());
  double clean_head = 0.0;
  double notched_head = 0.0;
  const size_t head = clean_env->num_samples() / 4;
  for (size_t i = 0; i < head; ++i) {
    clean_head += clean_env->channel(0)[i];
    notched_head += notched_env->channel(0)[i];
  }
  // The hum is 13× the clean RMS; an untamed transient multiplies the
  // head envelope. Warm-started it stays within 25%.
  EXPECT_NEAR(notched_head, clean_head, 0.25 * clean_head);
}

// The per-channel composition of public signal-layer calls that defines
// ConditionRecording: optional notch with its whole-second warm start,
// band-pass, full-wave rectification, resampling, clamp.
std::vector<double> ComposedChannel(std::vector<double> x, double fs,
                                    const AcquisitionOptions& options) {
  if (options.notch_hz > 0.0) {
    auto notch = DesignNotch(options.notch_hz, options.notch_q, fs);
    EXPECT_TRUE(notch.ok());
    const size_t needed = static_cast<size_t>(
        4.0 * options.notch_q * fs / (M_PI * options.notch_hz));
    const size_t block = static_cast<size_t>(std::lround(fs));
    size_t warm = 0;
    if (block > 0 && x.size() >= block) {
      warm = std::min((needed + block - 1) / block, x.size() / block) *
             block;
    }
    std::vector<double> padded(x.begin(),
                               x.begin() + static_cast<ptrdiff_t>(warm));
    padded.insert(padded.end(), x.begin(), x.end());
    padded = notch->ProcessSignal(padded);
    x.assign(padded.begin() + static_cast<ptrdiff_t>(warm), padded.end());
  }
  if (!options.skip_bandpass) {
    auto bp = DesignBandPass(options.filter_order, options.band_low_hz,
                             options.band_high_hz, fs);
    EXPECT_TRUE(bp.ok());
    x = bp->ProcessSignal(x);
  }
  x = FullWaveRectify(x);
  auto resampled = Resample(x, fs, options.output_rate_hz);
  EXPECT_TRUE(resampled.ok());
  x = *std::move(resampled);
  for (double& v : x) {
    if (v < 0.0) v = 0.0;
  }
  return x;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(AcquisitionTest, MatchesPerChannelCompositionBitForBit) {
  // One synthetic right-hand capture supplies the realistic length and
  // content; the short lengths straddle FiltFilt's 256-sample pad and
  // the notch's one-second warm-start block.
  DatasetOptions lab;
  lab.limb = Limb::kRightHand;
  lab.seed = 20070415;
  auto trial = GenerateTrial(lab, 2, 0, 7);
  ASSERT_TRUE(trial.ok()) << trial.status();
  const EmgRecording& hand = trial->emg_raw;
  const double fs = hand.sample_rate_hz();

  std::vector<AcquisitionOptions> variants(7);
  variants[1].notch_hz = 60.0;
  variants[2].skip_bandpass = true;
  variants[3].skip_bandpass = true;
  variants[3].notch_hz = 50.0;
  variants[4].output_rate_hz = fs;  // equal rates: no resampling filter
  variants[5].output_rate_hz = 2.5 * fs;  // upsampling: interpolation only
  variants[5].notch_hz = 50.0;
  variants[6].output_rate_hz = fs;
  variants[6].skip_bandpass = true;

  const std::vector<Muscle> muscles = {Muscle::kBiceps, Muscle::kTriceps,
                                       Muscle::kUpperForearm,
                                       Muscle::kLowerForearm,
                                       Muscle::kFrontShin};
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{257},
                   size_t{258}, size_t{513}, size_t{1026},
                   hand.num_samples()}) {
    for (size_t channels = 1; channels <= 5; ++channels) {
      Rng rng(1000 * n + channels);
      std::vector<std::vector<double>> data(channels);
      for (size_t c = 0; c < channels; ++c) {
        data[c].resize(n);
        for (size_t i = 0; i < n; ++i) {
          // Distinct content per channel so a lane mix-up shows: the
          // capture's own channels (the fifth reversed and scaled) at
          // its full length, hum + noise + offset otherwise.
          if (n == hand.num_samples()) {
            data[c][i] = c < hand.num_channels()
                             ? hand.channel(c)[i]
                             : -0.5 * hand.channel(0)[n - 1 - i];
          } else {
            data[c][i] =
                4e-5 * std::sin(2.0 * M_PI * 60.0 * static_cast<double>(i) /
                                fs) +
                3e-5 * rng.NextGaussian() + 1e-6 * static_cast<double>(c);
          }
        }
      }
      auto raw = EmgRecording::Create(
          std::vector<Muscle>(muscles.begin(),
                              muscles.begin() +
                                  static_cast<ptrdiff_t>(channels)),
          data, fs);
      ASSERT_TRUE(raw.ok()) << raw.status();
      for (size_t v = 0; v < variants.size(); ++v) {
        const std::string where = "n=" + std::to_string(n) + " channels=" +
                                  std::to_string(channels) +
                                  " variant=" + std::to_string(v);
        auto out = ConditionRecording(*raw, variants[v]);
        ASSERT_TRUE(out.ok()) << where << ": " << out.status();
        ASSERT_EQ(out->num_channels(), channels) << where;
        EXPECT_EQ(out->sample_rate_hz(), variants[v].output_rate_hz);
        for (size_t c = 0; c < channels; ++c) {
          EXPECT_TRUE(SameBits(out->channel(c),
                               ComposedChannel(data[c], fs, variants[v])))
              << where << " channel " << c;
        }
      }
    }
  }
}

TEST(AcquisitionTest, RejectsEmptyRecording) {
  auto raw = EmgRecording::Create({Muscle::kBiceps}, {{}}, 1000.0);
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(ConditionRecording(*raw).ok());
}

}  // namespace
}  // namespace mocemg
