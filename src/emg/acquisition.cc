#include "emg/acquisition.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "signal/butterworth.h"
#include "signal/resample.h"
#include "util/macros.h"

namespace mocemg {

namespace {

// Validates the options against the raw rate and designs the filters
// they ask for; every way the chain can fail is here, before the
// samples are read.
struct Filters {
  std::optional<BiquadCascade> notch;
  std::optional<BiquadCascade> band_pass;
};

Result<Filters> DesignFilters(double fs, const AcquisitionOptions& options) {
  if (options.output_rate_hz <= 0.0) {
    return Status::InvalidArgument("output rate must be positive");
  }
  if (!options.skip_bandpass) {
    if (options.band_low_hz < 0.0 ||
        options.band_low_hz >= options.band_high_hz) {
      return Status::InvalidArgument(
          "band-pass edges [" + std::to_string(options.band_low_hz) +
          ", " + std::to_string(options.band_high_hz) +
          "] Hz must satisfy 0 <= low < high");
    }
    if (options.band_high_hz >= fs / 2.0) {
      return Status::InvalidArgument(
          "band-pass upper edge " + std::to_string(options.band_high_hz) +
          " Hz is at or above the Nyquist frequency " +
          std::to_string(fs / 2.0) + " Hz of the " + std::to_string(fs) +
          " Hz raw rate: content there is already aliased and cannot "
          "be recovered by filtering");
    }
  }
  if (options.notch_hz > 0.0 && options.notch_hz >= fs / 2.0) {
    return Status::InvalidArgument(
        "notch frequency " + std::to_string(options.notch_hz) +
        " Hz is at or above the Nyquist frequency " +
        std::to_string(fs / 2.0) +
        " Hz: power-line hum at that rate aliases to a different "
        "frequency and the notch would dig into clean signal instead");
  }
  Filters filters;
  if (options.notch_hz > 0.0) {
    MOCEMG_ASSIGN_OR_RETURN(
        filters.notch, DesignNotch(options.notch_hz, options.notch_q, fs));
  }
  if (!options.skip_bandpass) {
    MOCEMG_ASSIGN_OR_RETURN(
        filters.band_pass,
        DesignBandPass(options.filter_order, options.band_low_hz,
                       options.band_high_hz, fs));
  }
  return filters;
}

}  // namespace

Result<EmgRecording> ConditionRecording(const EmgRecording& raw,
                                        const AcquisitionOptions& options) {
  // EmgRecording::Validate's contract — no samples, then per channel a
  // ragged length before a non-finite sample — outranks every option
  // error. The samples are checked in the pass that first reads them,
  // so the shape is checked here, and any failure below re-runs
  // Validate, which names the input's first fault when it has one.
  const size_t lanes = raw.num_channels();
  const size_t n = raw.num_samples();
  bool ragged = false;
  for (size_t c = 0; c < lanes; ++c) {
    ragged = ragged || raw.channel(c).size() != n;
  }
  if (n == 0 || ragged) return raw.Validate();
  const double fs = raw.sample_rate_hz();
  Result<Filters> designed = DesignFilters(fs, options);
  if (!designed.ok()) {
    MOCEMG_RETURN_NOT_OK(raw.Validate());
    return designed.status();
  }
  Filters& filters = *designed;

  // Every channel runs the same chain, so all of them run it together:
  // one interleaved buffer (frame f of channel c at signal[f * lanes +
  // c]) with room for the resampler's FiltFilt padding on both sides,
  // and one lockstep pass per stage. Each channel's samples come out
  // bit-identical to running the chain on that channel alone. The
  // buffer starts uninitialized: the interleave writes every frame and
  // FiltFiltLanes writes its padding before reading it.
  const size_t pad = BiquadCascade::kFiltFiltPad;
  const auto buffer =
      std::make_unique_for_overwrite<double[]>((n + 2 * pad) * lanes);
  double* signal = buffer.get() + pad * lanes;
  std::vector<const double*> channels(lanes);
  for (size_t c = 0; c < lanes; ++c) channels[c] = raw.channel(c).data();
  // Writes frames [0, frames) of every channel, frame by frame, and
  // returns Σ (x − x) over the samples written: +0 exactly when all are
  // finite, NaN once one is NaN or ±Inf. (IEEE semantics — it holds
  // because nothing here builds with -ffast-math, which may fold x − x
  // to 0.)
  const auto interleave = [&](size_t frames) {
    double check = 0.0;
    for (size_t f = 0; f < frames; ++f) {
      double* out = signal + f * lanes;
      double frame_check = 0.0;
      for (size_t c = 0; c < lanes; ++c) {
        const double x = channels[c][f];
        out[c] = x;
        frame_check += x - x;
      }
      check += frame_check;
    }
    return check;
  };

  if (filters.notch) {
    // Warm-start: the notch's startup transient decays with time
    // constant Q/(π·f0) and would otherwise bleed hum into the first
    // feature windows. Run the notch first over whole seconds copied
    // from the signal start — an integer number of hum cycles for any
    // whole-Hz line frequency, so the hum phase is continuous at the
    // junction and the resonator state settles on the true phasor —
    // then over the signal itself from that state.
    const size_t needed = static_cast<size_t>(
        4.0 * options.notch_q * fs / (M_PI * options.notch_hz));
    const size_t block = static_cast<size_t>(std::lround(fs));
    size_t warm = 0;
    if (block > 0 && n >= block) {
      warm = std::min((needed + block - 1) / block, n / block) * block;
    }
    std::vector<double> state(2 * filters.notch->num_sections() * lanes,
                              0.0);
    interleave(warm);
    filters.notch->ProcessLanes(signal, warm, lanes, state.data());
    if (interleave(n) != 0.0) return raw.Validate();
    filters.notch->ProcessLanes(signal, n, lanes, state.data());
  } else if (interleave(n) != 0.0) {
    return raw.Validate();
  }
  if (filters.band_pass) {
    std::vector<double> state(2 * filters.band_pass->num_sections() * lanes,
                              0.0);
    filters.band_pass->ProcessLanes(signal, n, lanes, state.data());
  }
  // Full-wave rectification.
  for (size_t i = 0; i < n * lanes; ++i) signal[i] = std::fabs(signal[i]);

  // Rectified signals stay non-negative through an ideal resampler, but
  // the anti-alias filter can ring slightly below zero; the resampler
  // clamps as it interpolates.
  std::vector<std::vector<double>> conditioned(lanes);
  MOCEMG_RETURN_NOT_OK(ResampleLanes(signal, n, lanes, fs,
                                     options.output_rate_hz,
                                     conditioned.data(),
                                     /*clamp_negative=*/true));
  return EmgRecording::Create(raw.muscles(), std::move(conditioned),
                              options.output_rate_hz);
}

}  // namespace mocemg
