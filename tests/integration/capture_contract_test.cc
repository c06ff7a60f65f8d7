// The capture path's input contract: which Status a malformed or extreme
// capture gets from ConditionRecording, ExtractWindowFeatures and
// MotionClassifier::Classify. Every expectation names the exact code and
// message, so a faster validation scheme (a check folded into the pass
// that first reads the samples, say) must keep both — including which
// error wins when several apply.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/window_features.h"
#include "emg/acquisition.h"
#include "eval/protocols.h"
#include "mocap/local_transform.h"
#include "synth/dataset.h"
#include "util/logging.h"

namespace mocemg {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

const char kEmgNonFinite[] = "non-finite EMG sample";
const char kMarkerNonFinite[] = "non-finite marker position";
const char kSvdOverflow[] =
    "SVD input contains non-finite (or overflowing) entries";

// One right-hand capture (5 markers, 4 raw channels) and a small model
// trained at the benchmark's 100/50 ms windowing, shared by every test.
struct Fixture {
  CapturedMotion trial;
  EmgRecording conditioned;
  ClassifierOptions options;
  MotionClassifier clf;
};

const Fixture& Shared() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 2;
    lab.seed = 3;
    auto data = GenerateDataset(lab);
    MOCEMG_CHECK_OK(data.status());
    f->options.features.window_ms = 100.0;
    f->options.features.hop_ms = 50.0;
    f->options.fcm.num_clusters = 4;
    auto clf = MotionClassifier::Train(ToLabeledMotions(*std::move(data)),
                                       f->options);
    MOCEMG_CHECK_OK(clf.status());
    f->clf = *std::move(clf);
    auto trial = GenerateTrial(lab, 1, 0, 99);
    MOCEMG_CHECK_OK(trial.status());
    f->trial = *std::move(trial);
    auto conditioned = ConditionRecording(f->trial.emg_raw);
    MOCEMG_CHECK_OK(conditioned.status());
    f->conditioned = *std::move(conditioned);
    return f;
  }();
  return *fixture;
}

void ExpectStatus(const Status& st, StatusCode code,
                  const std::string& message, const std::string& where) {
  EXPECT_EQ(st.code(), code) << where << ": " << st;
  EXPECT_EQ(st.message(), message) << where << ": " << st;
}

void ExpectOk(const Status& st, const std::string& where) {
  EXPECT_TRUE(st.ok()) << where << ": " << st;
}

std::vector<size_t> Positions(size_t n) { return {0, n / 2, n - 1}; }

WindowFeatureOptions Features(bool use_mocap, bool use_emg = true) {
  WindowFeatureOptions opts = Shared().options.features;
  opts.use_mocap = use_mocap;
  opts.use_emg = use_emg;
  return opts;
}

std::string Where(const char* what, size_t index, size_t pos, double v) {
  return std::string(what) + " " + std::to_string(index) + " at " +
         std::to_string(pos) + " = " + std::to_string(v);
}

TEST(CaptureContractTest, NonFiniteRawEmgSample) {
  const Fixture& fx = Shared();
  const EmgRecording& raw = fx.trial.emg_raw;
  for (size_t c = 0; c < raw.num_channels(); ++c) {
    for (size_t pos : Positions(raw.num_samples())) {
      for (double v : {kNaN, kInf, -kInf}) {
        const std::string where = Where("channel", c, pos, v);
        EmgRecording bad = raw;
        bad.mutable_channel(c)[pos] = v;
        ExpectStatus(ConditionRecording(bad).status(),
                     StatusCode::kNumericalError, kEmgNonFinite, where);
        ExpectStatus(fx.clf.Classify(fx.trial.mocap, bad).status(),
                     StatusCode::kNumericalError, kEmgNonFinite, where);
      }
    }
  }
}

TEST(CaptureContractTest, NonFiniteMarkerCoordinate) {
  const Fixture& fx = Shared();
  const MotionSequence& mocap = fx.trial.mocap;
  ASSERT_EQ(mocap.marker_set().segments()[0], Segment::kPelvis);
  for (size_t col = 0; col < mocap.positions().cols(); ++col) {
    for (size_t pos : Positions(mocap.num_frames())) {
      for (double v : {kNaN, kInf, -kInf}) {
        const std::string where = Where("column", col, pos, v);
        MotionSequence bad = mocap;
        bad.mutable_positions()(pos, col) = v;
        // The mocap stream is validated whether or not its modality is
        // featurized.
        for (bool use_mocap : {true, false}) {
          ExpectStatus(
              ExtractWindowFeatures(bad, fx.conditioned, Features(use_mocap))
                  .status(),
              StatusCode::kNumericalError, kMarkerNonFinite,
              where + (use_mocap ? " mocap on" : " mocap off"));
        }
        ExpectStatus(fx.clf.Classify(bad, fx.trial.emg_raw).status(),
                     StatusCode::kNumericalError, kMarkerNonFinite, where);
      }
    }
  }
}

TEST(CaptureContractTest, NonFiniteConditionedEmgSample) {
  const Fixture& fx = Shared();
  for (size_t c = 0; c < fx.conditioned.num_channels(); ++c) {
    for (size_t pos : Positions(fx.conditioned.num_samples())) {
      for (double v : {kNaN, kInf, -kInf}) {
        const std::string where = Where("channel", c, pos, v);
        EmgRecording bad = fx.conditioned;
        bad.mutable_channel(c)[pos] = v;
        for (bool use_mocap : {true, false}) {
          ExpectStatus(
              ExtractWindowFeatures(fx.trial.mocap, bad, Features(use_mocap))
                  .status(),
              StatusCode::kNumericalError, kEmgNonFinite, where);
        }
        // An EMG stream the options do not featurize is not validated.
        ExpectOk(ExtractWindowFeatures(fx.trial.mocap, bad,
                                       Features(true, /*use_emg=*/false))
                     .status(),
                 where + " emg off");
      }
    }
  }
}

TEST(CaptureContractTest, EmptyAndRaggedStreams) {
  const Fixture& fx = Shared();
  const EmgRecording& raw = fx.trial.emg_raw;

  // Zero-sample EMG.
  auto empty = EmgRecording::Create(
      raw.muscles(), std::vector<std::vector<double>>(raw.num_channels()),
      raw.sample_rate_hz());
  ASSERT_TRUE(empty.ok());
  ExpectStatus(ConditionRecording(*empty).status(),
               StatusCode::kFailedPrecondition, "recording has no samples",
               "condition empty");
  ExpectStatus(fx.clf.Classify(fx.trial.mocap, *empty).status(),
               StatusCode::kFailedPrecondition, "recording has no samples",
               "classify empty");
  auto empty_conditioned = EmgRecording::Create(
      raw.muscles(), std::vector<std::vector<double>>(raw.num_channels()),
      120.0);
  ASSERT_TRUE(empty_conditioned.ok());
  for (bool use_mocap : {true, false}) {
    ExpectStatus(ExtractWindowFeatures(fx.trial.mocap, *empty_conditioned,
                                       Features(use_mocap))
                     .status(),
                 StatusCode::kFailedPrecondition, "recording has no samples",
                 "extract empty");
  }

  // Zero-frame mocap.
  auto no_frames = MotionSequence::Create(
      fx.trial.mocap.marker_set(),
      Matrix(0, fx.trial.mocap.positions().cols()), 120.0);
  ASSERT_TRUE(no_frames.ok());
  for (bool use_mocap : {true, false}) {
    ExpectStatus(
        ExtractWindowFeatures(*no_frames, fx.conditioned, Features(use_mocap))
            .status(),
        StatusCode::kFailedPrecondition, "motion has no frames",
        "extract no frames");
  }
  ExpectStatus(fx.clf.Classify(*no_frames, raw).status(),
               StatusCode::kFailedPrecondition, "motion has no frames",
               "classify no frames");

  // A ragged channel (only reachable through mutable_channel). Channels
  // are checked in order, each for its length before its samples, so a
  // non-finite sample wins only in a channel before the ragged one.
  EmgRecording ragged = raw;
  ragged.mutable_channel(2).pop_back();
  ExpectStatus(ConditionRecording(ragged).status(),
               StatusCode::kFailedPrecondition, "ragged channel lengths",
               "condition ragged");
  ExpectStatus(fx.clf.Classify(fx.trial.mocap, ragged).status(),
               StatusCode::kFailedPrecondition, "ragged channel lengths",
               "classify ragged");
  for (size_t c = 0; c < raw.num_channels(); ++c) {
    EmgRecording bad = ragged;
    bad.mutable_channel(c)[1] = kNaN;
    const std::string where = "ragged + NaN in channel " + std::to_string(c);
    if (c < 2) {
      ExpectStatus(ConditionRecording(bad).status(),
                   StatusCode::kNumericalError, kEmgNonFinite, where);
    } else {
      ExpectStatus(ConditionRecording(bad).status(),
                   StatusCode::kFailedPrecondition, "ragged channel lengths",
                   where);
    }
  }
  // The first channel sets the expected length.
  EmgRecording short_first = raw;
  short_first.mutable_channel(0).resize(raw.num_samples() / 2);
  ExpectStatus(ConditionRecording(short_first).status(),
               StatusCode::kFailedPrecondition, "ragged channel lengths",
               "condition short first channel");
  EmgRecording ragged_conditioned = fx.conditioned;
  ragged_conditioned.mutable_channel(3).push_back(0.0);
  ExpectStatus(ExtractWindowFeatures(fx.trial.mocap, ragged_conditioned,
                                     Features(true))
                   .status(),
               StatusCode::kFailedPrecondition, "ragged channel lengths",
               "extract ragged");
}

TEST(CaptureContractTest, NonFiniteSampleWithInvalidOption) {
  const Fixture& fx = Shared();
  const EmgRecording& raw = fx.trial.emg_raw;
  EmgRecording bad_emg = raw;
  bad_emg.mutable_channel(1)[raw.num_samples() / 2] = kNaN;

  // ConditionRecording validates the samples before its options.
  std::vector<AcquisitionOptions> invalid(6);
  invalid[0].band_low_hz = 300.0;
  invalid[0].band_high_hz = 100.0;
  invalid[1].band_low_hz = -5.0;
  invalid[2].band_high_hz = 600.0;
  invalid[3].output_rate_hz = 0.0;
  invalid[4].output_rate_hz = -120.0;
  invalid[5].notch_hz = 500.0;
  const std::string band_inverted =
      "band-pass edges [" + std::to_string(300.0) + ", " +
      std::to_string(100.0) + "] Hz must satisfy 0 <= low < high";
  const std::string band_negative =
      "band-pass edges [" + std::to_string(-5.0) + ", " +
      std::to_string(450.0) + "] Hz must satisfy 0 <= low < high";
  const std::string band_nyquist =
      "band-pass upper edge " + std::to_string(600.0) +
      " Hz is at or above the Nyquist frequency " + std::to_string(500.0) +
      " Hz of the " + std::to_string(1000.0) +
      " Hz raw rate: content there is already aliased and cannot "
      "be recovered by filtering";
  const std::string notch_nyquist =
      "notch frequency " + std::to_string(500.0) +
      " Hz is at or above the Nyquist frequency " + std::to_string(500.0) +
      " Hz: power-line hum at that rate aliases to a different "
      "frequency and the notch would dig into clean signal instead";
  const std::vector<std::string> messages = {
      band_inverted, band_negative, band_nyquist,
      "output rate must be positive", "output rate must be positive",
      notch_nyquist};
  for (size_t i = 0; i < invalid.size(); ++i) {
    const std::string where = "invalid acquisition option " +
                              std::to_string(i);
    ExpectStatus(ConditionRecording(raw, invalid[i]).status(),
                 StatusCode::kInvalidArgument, messages[i], where);
    ExpectStatus(ConditionRecording(bad_emg, invalid[i]).status(),
                 StatusCode::kNumericalError, kEmgNonFinite, where + " + NaN");
  }
  // Ragged wins over an invalid option too.
  EmgRecording ragged = raw;
  ragged.mutable_channel(3).pop_back();
  ExpectStatus(ConditionRecording(ragged, invalid[3]).status(),
               StatusCode::kFailedPrecondition, "ragged channel lengths",
               "ragged + invalid rate");

  // ExtractWindowFeatures checks its segmentation options before either
  // stream, then the mocap stream, then the EMG stream, then the rest.
  MotionSequence bad_mocap = fx.trial.mocap;
  bad_mocap.mutable_positions()(5, 4) = kNaN;
  EmgRecording bad_conditioned = fx.conditioned;
  bad_conditioned.mutable_channel(0)[7] = kNaN;
  for (double window_ms : {0.0, -5.0}) {
    WindowFeatureOptions opts = Features(true);
    opts.window_ms = window_ms;
    ExpectStatus(
        ExtractWindowFeatures(bad_mocap, bad_conditioned, opts).status(),
        StatusCode::kInvalidArgument,
        "window_ms must be positive, got " + std::to_string(window_ms),
        "NaN + window_ms " + std::to_string(window_ms));
  }
  {
    WindowFeatureOptions opts = Features(true);
    opts.hop_ms = -1.0;
    ExpectStatus(
        ExtractWindowFeatures(bad_mocap, bad_conditioned, opts).status(),
        StatusCode::kInvalidArgument,
        "hop_ms must be non-negative, got " + std::to_string(-1.0),
        "NaN + negative hop");
    ExpectStatus(
        ExtractWindowFeatures(bad_mocap, fx.conditioned,
                              Features(false, false))
            .status(),
        StatusCode::kInvalidArgument,
        "at least one modality must be enabled", "NaN + no modality");
  }
  ExpectStatus(ExtractWindowFeatures(bad_mocap, bad_conditioned,
                                     Features(true))
                   .status(),
               StatusCode::kNumericalError, kMarkerNonFinite,
               "NaN in both streams");
  ExpectStatus(fx.clf.Classify(bad_mocap, bad_emg).status(),
               StatusCode::kNumericalError, kEmgNonFinite,
               "classify NaN in both streams");
  {
    // Rate mismatch.
    auto at_100 = EmgRecording::Create(raw.muscles(),
                                       {fx.conditioned.channel(0),
                                        fx.conditioned.channel(1),
                                        fx.conditioned.channel(2),
                                        fx.conditioned.channel(3)},
                                       100.0);
    ASSERT_TRUE(at_100.ok());
    ExpectStatus(
        ExtractWindowFeatures(bad_mocap, *at_100, Features(true)).status(),
        StatusCode::kNumericalError, kMarkerNonFinite, "NaN + rate mismatch");
    EmgRecording bad_at_100 = *at_100;
    bad_at_100.mutable_channel(2)[0] = kNaN;
    ExpectStatus(
        ExtractWindowFeatures(fx.trial.mocap, bad_at_100, Features(true))
            .status(),
        StatusCode::kNumericalError, kEmgNonFinite,
        "EMG NaN + rate mismatch");
  }
  {
    // Conflicting hop fields.
    WindowFeatureOptions opts = Features(true);
    opts.hop_frames = 7;
    ExpectStatus(
        ExtractWindowFeatures(bad_mocap, fx.conditioned, opts).status(),
        StatusCode::kNumericalError, kMarkerNonFinite, "NaN + hop conflict");
  }
  {
    // Capture shorter than one window.
    auto short_mocap = fx.trial.mocap.FrameSlice(0, 5);
    auto short_emg = fx.conditioned.SampleSlice(0, 5);
    ASSERT_TRUE(short_mocap.ok());
    ASSERT_TRUE(short_emg.ok());
    MotionSequence bad_short = *short_mocap;
    bad_short.mutable_positions()(4, 0) = kInf;
    ExpectStatus(
        ExtractWindowFeatures(bad_short, *short_emg, Features(true)).status(),
        StatusCode::kNumericalError, kMarkerNonFinite, "NaN + too short");
  }
  {
    // A pelvis-only capture has nothing to featurize.
    auto pelvis_only = fx.trial.mocap.SelectSegments({});
    ASSERT_TRUE(pelvis_only.ok());
    ASSERT_EQ(pelvis_only->num_markers(), 1u);
    ExpectStatus(
        ExtractWindowFeatures(*pelvis_only, fx.conditioned, Features(true))
            .status(),
        StatusCode::kInvalidArgument,
        "mocap modality enabled but capture has no non-pelvis markers",
        "pelvis only");
    ExpectOk(
        ExtractWindowFeatures(*pelvis_only, fx.conditioned, Features(false))
            .status(),
        "pelvis only, mocap off");
    MotionSequence bad_pelvis = *pelvis_only;
    bad_pelvis.mutable_positions()(3, 2) = -kInf;
    for (bool use_mocap : {true, false}) {
      ExpectStatus(ExtractWindowFeatures(bad_pelvis, fx.conditioned,
                                         Features(use_mocap))
                       .status(),
                   StatusCode::kNumericalError, kMarkerNonFinite,
                   "NaN + pelvis only");
    }
  }
}

TEST(CaptureContractTest, FiniteExtremes) {
  const Fixture& fx = Shared();
  const EmgRecording& raw = fx.trial.emg_raw;
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (double v : {DBL_MAX, -DBL_MAX, tiny, -0.0}) {
    const bool huge = std::fabs(v) == DBL_MAX;
    for (size_t pos : Positions(raw.num_samples())) {
      const std::string where = Where("raw channel", 1, pos, v);
      EmgRecording e = raw;
      e.mutable_channel(1)[pos] = v;
      // Finite input is accepted; a huge sample overflows the filters,
      // and the non-finite envelope is caught by the feature extractor.
      ExpectOk(ConditionRecording(e).status(), where);
      const Status st = fx.clf.Classify(fx.trial.mocap, e).status();
      if (huge) {
        ExpectStatus(st, StatusCode::kNumericalError, kEmgNonFinite, where);
      } else {
        ExpectOk(st, where);
      }
    }
    const MotionSequence& mocap = fx.trial.mocap;
    for (size_t pos : Positions(mocap.num_frames())) {
      // Column 0 is the pelvis x, column 4 the clavicle y.
      for (size_t col : {size_t{0}, size_t{4}}) {
        const std::string where = Where("column", col, pos, v);
        MotionSequence m = mocap;
        m.mutable_positions()(pos, col) = v;
        // The last frame lies past the last 100/50 ms window.
        const bool read = pos + 1 < mocap.num_frames();
        ExpectOk(ExtractWindowFeatures(m, fx.conditioned, Features(false))
                     .status(),
                 where + " mocap off");
        const Status on =
            ExtractWindowFeatures(m, fx.conditioned, Features(true)).status();
        const Status cl = fx.clf.Classify(m, raw).status();
        if (huge && read) {
          ExpectStatus(on, StatusCode::kNumericalError, kSvdOverflow, where);
          ExpectStatus(cl, StatusCode::kNumericalError, kSvdOverflow, where);
        } else {
          ExpectOk(on, where);
          ExpectOk(cl, where);
        }
      }
    }
  }
}

TEST(CaptureContractTest, FinitePositionsWhoseLocalDifferenceOverflows) {
  // -DBL_MAX at the pelvis and +DBL_MAX at the clavicle are both finite,
  // so the capture is valid; only the pelvis-local x overflows to +Inf.
  // That surfaces where a window reads it, as the SVD's error.
  const Fixture& fx = Shared();
  const MotionSequence& mocap = fx.trial.mocap;
  for (size_t pos : Positions(mocap.num_frames())) {
    const std::string where = "frame " + std::to_string(pos);
    MotionSequence m = mocap;
    m.mutable_positions()(pos, 0) = -DBL_MAX;
    m.mutable_positions()(pos, 3) = DBL_MAX;
    ExpectOk(
        ExtractWindowFeatures(m, fx.conditioned, Features(false)).status(),
        where + " mocap off");
    const Status on =
        ExtractWindowFeatures(m, fx.conditioned, Features(true)).status();
    const Status cl = fx.clf.Classify(m, fx.trial.emg_raw).status();
    if (pos + 1 < mocap.num_frames()) {
      ExpectStatus(on, StatusCode::kNumericalError, kSvdOverflow, where);
      ExpectStatus(cl, StatusCode::kNumericalError, kSvdOverflow, where);
    } else {
      ExpectOk(on, where);
      ExpectOk(cl, where);
    }
  }
}

TEST(CaptureContractTest, PelvisLocalTransformPassesNonFiniteThrough) {
  // ToPelvisLocal itself does not validate: it is a coordinate change.
  MotionSequence m = Shared().trial.mocap;
  m.mutable_positions()(2, 0) = kNaN;
  m.mutable_positions()(3, 5) = kInf;
  auto local = ToPelvisLocal(m);
  ASSERT_TRUE(local.ok()) << local.status();
  // A non-finite pelvis x reaches every marker's x in that frame.
  for (size_t col = 0; col < m.positions().cols(); ++col) {
    EXPECT_EQ(std::isnan(local->positions()(2, col)), col % 3 == 0) << col;
  }
  EXPECT_EQ(local->positions()(3, 5), kInf);
  EXPECT_EQ(local->positions()(3, 0), 0.0);
}

}  // namespace
}  // namespace mocemg
