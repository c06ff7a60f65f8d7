#include "signal/biquad.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "util/kernel_dispatch.h"

namespace mocemg {

double Biquad::MagnitudeAt(double w) const {
  const std::complex<double> z = std::polar(1.0, -w);
  const std::complex<double> z2 = z * z;
  const std::complex<double> num =
      coeffs_.b0 + coeffs_.b1 * z + coeffs_.b2 * z2;
  const std::complex<double> den = 1.0 + coeffs_.a1 * z + coeffs_.a2 * z2;
  return std::abs(num / den);
}

BiquadCascade::BiquadCascade(
    const std::vector<BiquadCoefficients>& sections)
    : state_(2 * sections.size(), 0.0) {
  coeffs_.reserve(5 * sections.size());
  for (const BiquadCoefficients& c : sections) {
    coeffs_.insert(coeffs_.end(), {c.b0, c.b1, c.b2, c.a1, c.a2});
  }
}

double BiquadCascade::Process(double x) {
  ProcessLanes(&x, 1, 1, state_.data());
  return x;
}

std::vector<double> BiquadCascade::ProcessSignal(
    const std::vector<double>& input) {
  std::vector<double> out = input;
  ProcessLanes(out.data(), out.size(), 1, state_.data());
  return out;
}

void BiquadCascade::ProcessLanes(double* data, size_t frames, size_t lanes,
                                 double* state, bool reverse) const {
  internal::ActiveKernelOps().biquad_cascade_lanes(
      coeffs_.data(), num_sections(), state, data, frames, lanes, reverse);
}

std::vector<double> BiquadCascade::FiltFilt(
    const std::vector<double>& input) const {
  if (input.empty()) return {};
  const size_t pad = std::min(input.size() - 1, kFiltFiltPad);
  std::vector<double> padded(input.size() + 2 * pad);
  std::copy(input.begin(), input.end(),
            padded.begin() + static_cast<ptrdiff_t>(pad));
  FiltFiltLanes(padded.data() + pad, input.size(), 1);
  padded.erase(padded.begin(), padded.begin() + static_cast<ptrdiff_t>(pad));
  padded.resize(input.size());
  return padded;
}

void BiquadCascade::FiltFiltLanes(double* data, size_t frames,
                                  size_t lanes) const {
  if (frames == 0) return;
  // Reflect the edges (2·x[0] − x[i] before the start, likewise after
  // the end) so both passes start from a warmed-up state. The pad is a
  // fixed 256 samples, capped by the length — not derived from the
  // filter's time constants.
  const size_t pad = std::min(frames - 1, kFiltFiltPad);
  const double* first = data;
  const double* last = data + (frames - 1) * lanes;
  for (size_t i = 1; i <= pad; ++i) {
    double* before = data - i * lanes;
    double* after = data + (frames - 1 + i) * lanes;
    const double* inner_first = first + i * lanes;
    const double* inner_last = last - i * lanes;
    for (size_t l = 0; l < lanes; ++l) {
      before[l] = 2.0 * first[l] - inner_first[l];
      after[l] = 2.0 * last[l] - inner_last[l];
    }
  }
  std::vector<double> state(2 * num_sections() * lanes, 0.0);
  double* padded = data - pad * lanes;
  ProcessLanes(padded, frames + 2 * pad, lanes, state.data());
  std::fill(state.begin(), state.end(), 0.0);
  ProcessLanes(padded, frames + 2 * pad, lanes, state.data(),
               /*reverse=*/true);
}

void BiquadCascade::Reset() { std::fill(state_.begin(), state_.end(), 0.0); }

double BiquadCascade::MagnitudeAt(double w) const {
  double mag = 1.0;
  for (size_t s = 0; s < num_sections(); ++s) {
    const double* c = coeffs_.data() + 5 * s;
    mag *= Biquad({c[0], c[1], c[2], c[3], c[4]}).MagnitudeAt(w);
  }
  return mag;
}

}  // namespace mocemg
