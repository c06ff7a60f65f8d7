/// \file biquad.h
/// \brief Second-order IIR sections and cascades (Direct Form II
/// transposed), the building block of the EMG acquisition filter chain.

#ifndef MOCEMG_SIGNAL_BIQUAD_H_
#define MOCEMG_SIGNAL_BIQUAD_H_

#include <cstddef>
#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Normalized biquad coefficients: H(z) = (b0 + b1 z⁻¹ + b2 z⁻²) /
/// (1 + a1 z⁻¹ + a2 z⁻²).
struct BiquadCoefficients {
  double b0 = 1.0;
  double b1 = 0.0;
  double b2 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// \brief One stateful second-order section (Direct Form II transposed:
/// best numerical behaviour of the direct forms for double precision).
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoefficients& coeffs) : coeffs_(coeffs) {}

  /// \brief Processes one sample.
  double Process(double x) {
    const double y = coeffs_.b0 * x + s1_;
    s1_ = coeffs_.b1 * x - coeffs_.a1 * y + s2_;
    s2_ = coeffs_.b2 * x - coeffs_.a2 * y;
    return y;
  }

  /// \brief Clears the delay line.
  void Reset() { s1_ = s2_ = 0.0; }

  const BiquadCoefficients& coefficients() const { return coeffs_; }

  /// \brief Magnitude response at normalized angular frequency
  /// w = 2π f / fs (test/verification utility).
  double MagnitudeAt(double w) const;

 private:
  BiquadCoefficients coeffs_;
  double s1_ = 0.0;
  double s2_ = 0.0;
};

/// \brief A chain of biquads applied in sequence.
///
/// Whole-signal filtering runs through the dispatched lane kernel
/// (KernelOps::biquad_cascade_lanes) with the delay lines in registers,
/// over one signal or over several interleaved independent signals
/// ("lanes") in lockstep. Every lane gets exactly the bits of running
/// Biquad::Process section by section on that lane alone.
class BiquadCascade {
 public:
  /// Frames of edge padding FiltFilt adds on each side of a signal of
  /// more than kFiltFiltPad frames (shorter signals get frames − 1).
  static constexpr size_t kFiltFiltPad = 256;

  BiquadCascade() = default;
  explicit BiquadCascade(const std::vector<BiquadCoefficients>& sections);

  /// \brief Processes one sample through all sections.
  double Process(double x);

  /// \brief Filters a whole signal (stateful; call Reset() between
  /// independent signals).
  std::vector<double> ProcessSignal(const std::vector<double>& input);

  /// \brief Filters `lanes` interleaved signals of `frames` frames in
  /// place (frame f of lane l at data[f * lanes + l]), last frame first
  /// when `reverse`. `state` carries every lane's delay lines in and
  /// out: 2 · num_sections() · lanes doubles, all zero for a fresh
  /// start (layout in KernelOps::biquad_cascade_lanes). The cascade's
  /// own state is left alone.
  void ProcessLanes(double* data, size_t frames, size_t lanes,
                    double* state, bool reverse = false) const;

  /// \brief Zero-phase filtering: forward pass, then reverse pass, with
  /// reflected-edge padding to suppress startup transients. Doubles the
  /// effective order and cancels group delay — used where the EMG
  /// envelope must stay aligned with the mocap frames.
  std::vector<double> FiltFilt(const std::vector<double>& input) const;

  /// \brief FiltFilt of `lanes` interleaved signals of `frames` frames,
  /// in place. The padding is written into the min(frames − 1,
  /// kFiltFiltPad) frames just before `data` and just after its last
  /// frame, which must belong to the same buffer.
  void FiltFiltLanes(double* data, size_t frames, size_t lanes) const;

  void Reset();
  size_t num_sections() const { return coeffs_.size() / 5; }

  /// \brief Cascade magnitude response at w = 2π f / fs.
  double MagnitudeAt(double w) const;

 private:
  std::vector<double> coeffs_;  // b0, b1, b2, a1, a2 per section
  std::vector<double> state_;   // s1, s2 per section: one lane's state
};

}  // namespace mocemg

#endif  // MOCEMG_SIGNAL_BIQUAD_H_
