#include "emg/acquisition.h"

#include <algorithm>
#include <cmath>

#include "signal/butterworth.h"
#include "signal/resample.h"
#include "util/macros.h"

namespace mocemg {

Result<EmgRecording> ConditionRecording(const EmgRecording& raw,
                                        const AcquisitionOptions& options) {
  MOCEMG_RETURN_NOT_OK(raw.Validate());
  if (options.output_rate_hz <= 0.0) {
    return Status::InvalidArgument("output rate must be positive");
  }
  const double fs = raw.sample_rate_hz();
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

  // Every channel runs the same chain, so all of them run it together:
  // one interleaved buffer (frame f of channel c at signal[f * lanes +
  // c]) with room for the resampler's FiltFilt padding on both sides,
  // and one lockstep pass per stage. Each channel's samples come out
  // bit-identical to running the chain on that channel alone.
  const size_t lanes = raw.num_channels();
  const size_t n = raw.num_samples();
  const size_t pad = BiquadCascade::kFiltFiltPad;
  std::vector<double> buffer((n + 2 * pad) * lanes);
  double* signal = buffer.data() + pad * lanes;
  const auto interleave = [&](size_t frames) {
    for (size_t c = 0; c < lanes; ++c) {
      const std::vector<double>& x = raw.channel(c);
      for (size_t f = 0; f < frames; ++f) signal[f * lanes + c] = x[f];
    }
  };

  if (options.notch_hz > 0.0) {
    MOCEMG_ASSIGN_OR_RETURN(
        BiquadCascade notch,
        DesignNotch(options.notch_hz, options.notch_q, fs));
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
    std::vector<double> state(2 * notch.num_sections() * lanes, 0.0);
    interleave(warm);
    notch.ProcessLanes(signal, warm, lanes, state.data());
    interleave(n);
    notch.ProcessLanes(signal, n, lanes, state.data());
  } else {
    interleave(n);
  }
  if (!options.skip_bandpass) {
    MOCEMG_ASSIGN_OR_RETURN(
        BiquadCascade bp,
        DesignBandPass(options.filter_order, options.band_low_hz,
                       options.band_high_hz, fs));
    std::vector<double> state(2 * bp.num_sections() * lanes, 0.0);
    bp.ProcessLanes(signal, n, lanes, state.data());
  }
  // Full-wave rectification.
  for (size_t i = 0; i < n * lanes; ++i) signal[i] = std::fabs(signal[i]);

  std::vector<std::vector<double>> conditioned(lanes);
  MOCEMG_RETURN_NOT_OK(ResampleLanes(signal, n, lanes, fs,
                                     options.output_rate_hz,
                                     conditioned.data()));
  // Rectified signals stay non-negative through an ideal resampler, but
  // the anti-alias filter can ring slightly below zero; clamp.
  for (std::vector<double>& x : conditioned) {
    for (double& v : x) {
      if (v < 0.0) v = 0.0;
    }
  }
  return EmgRecording::Create(raw.muscles(), std::move(conditioned),
                              options.output_rate_hz);
}

}  // namespace mocemg
