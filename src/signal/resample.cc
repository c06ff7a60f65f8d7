#include "signal/resample.h"

#include <algorithm>
#include <cmath>

#include "signal/butterworth.h"
#include "util/macros.h"

namespace mocemg {
namespace {

inline double ClampNegative(double v) { return v < 0.0 ? 0.0 : v; }

// Linear interpolation of `lanes` interleaved signals at the output
// instants k/fs_out; lane l's samples go to out[l], clamped at zero
// when `clamp` is set.
void InterpolateLanes(const double* data, size_t frames, size_t lanes,
                      double fs_in, double fs_out, bool clamp,
                      std::vector<double>* out) {
  const size_t out_len = ResampledLength(frames, fs_in, fs_out);
  std::vector<double*> dst(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    out[l].resize(out_len);
    dst[l] = out[l].data();
  }
  const double* last = data + (frames - 1) * lanes;
  for (size_t k = 0; k < out_len; ++k) {
    const double t = static_cast<double>(k) / fs_out;  // seconds
    const double src = t * fs_in;                      // fractional index
    // src is never negative, so truncation is its floor.
    const size_t i0 = static_cast<size_t>(src);
    if (i0 + 1 >= frames) {
      for (size_t l = 0; l < lanes; ++l) {
        dst[l][k] = clamp ? ClampNegative(last[l]) : last[l];
      }
      continue;
    }
    const double frac = src - static_cast<double>(i0);
    const double* a = data + i0 * lanes;
    const double* b = a + lanes;
    for (size_t l = 0; l < lanes; ++l) {
      const double v = (1.0 - frac) * a[l] + frac * b[l];
      dst[l][k] = clamp ? ClampNegative(v) : v;
    }
  }
}

Status ValidateRates(double fs_in, double fs_out) {
  if (fs_in <= 0.0 || fs_out <= 0.0) {
    return Status::InvalidArgument("sample rates must be positive");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<double>> Decimate(const std::vector<double>& signal,
                                     double sample_rate_hz, int factor) {
  if (factor < 1) {
    return Status::InvalidArgument("decimation factor must be >= 1");
  }
  if (factor == 1) return signal;
  const double target_nyquist = sample_rate_hz / factor / 2.0;
  MOCEMG_ASSIGN_OR_RETURN(
      BiquadCascade lp,
      DesignButterworthLowPass(8, 0.8 * target_nyquist, sample_rate_hz));
  std::vector<double> filtered = lp.FiltFilt(signal);
  std::vector<double> out;
  out.reserve(filtered.size() / static_cast<size_t>(factor) + 1);
  for (size_t i = 0; i < filtered.size(); i += static_cast<size_t>(factor)) {
    out.push_back(filtered[i]);
  }
  return out;
}

size_t ResampledLength(size_t input_len, double fs_in, double fs_out) {
  if (input_len == 0) return 0;
  if (fs_in == fs_out) return input_len;
  const double duration =
      static_cast<double>(input_len - 1) / fs_in;  // seconds
  return static_cast<size_t>(std::floor(duration * fs_out)) + 1;
}

Status ResampleLanes(double* data, size_t frames, size_t lanes,
                     double fs_in, double fs_out, std::vector<double>* out,
                     bool clamp_negative) {
  MOCEMG_RETURN_NOT_OK(ValidateRates(fs_in, fs_out));
  if (frames == 0 || fs_in == fs_out) {
    for (size_t l = 0; l < lanes; ++l) {
      out[l].resize(frames);
      for (size_t f = 0; f < frames; ++f) {
        const double v = data[f * lanes + l];
        out[l][f] = clamp_negative ? ClampNegative(v) : v;
      }
    }
    return Status::OK();
  }
  if (fs_out < fs_in) {
    // Anti-alias before downsampling.
    MOCEMG_ASSIGN_OR_RETURN(
        BiquadCascade lp, DesignButterworthLowPass(8, 0.45 * fs_out, fs_in));
    lp.FiltFiltLanes(data, frames, lanes);
  }
  InterpolateLanes(data, frames, lanes, fs_in, fs_out, clamp_negative, out);
  return Status::OK();
}

Result<std::vector<double>> Resample(const std::vector<double>& signal,
                                     double fs_in, double fs_out) {
  MOCEMG_RETURN_NOT_OK(ValidateRates(fs_in, fs_out));
  if (signal.empty() || fs_in == fs_out) return signal;
  std::vector<double> out;
  if (fs_out > fs_in) {
    // Nothing to filter: interpolate straight from the input.
    InterpolateLanes(signal.data(), signal.size(), 1, fs_in, fs_out,
                     /*clamp=*/false, &out);
    return out;
  }
  const size_t pad = std::min(signal.size() - 1, BiquadCascade::kFiltFiltPad);
  std::vector<double> padded(signal.size() + 2 * pad);
  std::copy(signal.begin(), signal.end(),
            padded.begin() + static_cast<ptrdiff_t>(pad));
  MOCEMG_RETURN_NOT_OK(ResampleLanes(padded.data() + pad, signal.size(), 1,
                                     fs_in, fs_out, &out));
  return out;
}

}  // namespace mocemg
