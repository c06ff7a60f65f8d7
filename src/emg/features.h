/// \file features.h
/// \brief Time-domain EMG features. The paper's primary feature is the
/// Integral of Absolute Value (IAV, Eq. 1); the related-work section
/// surveys the classic alternatives (zero crossings [7], EMG histogram
/// [15], AR coefficients [5]); all are implemented here so the ablation
/// bench (abl5) can compare them inside the same pipeline.
///
/// All extractors operate on one channel's samples within one window and
/// return scalar(s); the core pipeline concatenates them per channel.

#ifndef MOCEMG_EMG_FEATURES_H_
#define MOCEMG_EMG_FEATURES_H_

#include <cstddef>
#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Integral of Absolute Value (Eq. 1): Σ|x_k| over the window.
/// On the conditioned (already rectified, non-negative) stream this is
/// the plain sum, exactly as the paper computes it.
double IntegralOfAbsoluteValue(const double* samples, size_t n);
double IntegralOfAbsoluteValue(const std::vector<double>& samples);

/// \brief Mean Absolute Value: IAV / n.
double MeanAbsoluteValue(const double* samples, size_t n);

/// \brief Root mean square.
double RootMeanSquare(const double* samples, size_t n);

/// \brief Waveform length: Σ|x_{k+1} − x_k|.
double WaveformLength(const double* samples, size_t n);

/// \brief Zero crossings with a noise dead-band `threshold` (Hudgins).
/// Counts sign changes where the swing exceeds the threshold.
size_t ZeroCrossings(const double* samples, size_t n,
                     double threshold = 0.0);

/// \brief Slope sign changes with dead-band `threshold` (Hudgins).
size_t SlopeSignChanges(const double* samples, size_t n,
                        double threshold = 0.0);

/// \brief Willison amplitude: count of |x_{k+1} − x_k| > threshold.
size_t WillisonAmplitude(const double* samples, size_t n, double threshold);

/// \brief EMG histogram (Zardoshti-Kermani): `bins` counts of samples in
/// equal-width bins spanning [lo, hi]; samples outside are clamped into
/// the edge bins. Fails if bins == 0 or lo >= hi.
Result<std::vector<double>> EmgHistogram(const double* samples, size_t n,
                                         size_t bins, double lo, double hi);

/// \brief Autoregressive model coefficients of order `order` via Burg's
/// method (Graupe's AR feature). Returns `order` coefficients a_1..a_p of
/// x_k ≈ Σ a_i x_{k−i}. Fails when n <= order or the signal has no
/// energy.
Result<std::vector<double>> BurgArCoefficients(const double* samples,
                                               size_t n, size_t order);

/// \brief Named selector used by the ablation bench to swap the EMG
/// feature family while keeping the rest of the pipeline fixed.
enum class EmgFeatureKind : int {
  kIav = 0,
  kMav,
  kRms,
  kWaveformLength,
  kZeroCrossings,
  kAr4,
};

const char* EmgFeatureKindName(EmgFeatureKind kind);

/// \brief Number of values ExtractEmgFeature produces per channel
/// window (1 for the scalar features, 4 for AR(4)).
size_t EmgFeatureWidth(EmgFeatureKind kind);

/// \brief Extracts the chosen feature(s) for one channel window; scalar
/// features return one value, AR(4) returns four.
Result<std::vector<double>> ExtractEmgFeature(EmgFeatureKind kind,
                                              const double* samples,
                                              size_t n);

/// \brief Allocation-free variant for hot loops: writes exactly
/// EmgFeatureWidth(kind) values into `out`. Identical values to
/// ExtractEmgFeature.
Status ExtractEmgFeatureInto(EmgFeatureKind kind, const double* samples,
                             size_t n, double* out);

/// \brief True for kinds EmgWindowSums can emit — every scalar
/// time-domain feature. AR(4) has no O(hop) update (Burg's recursion is
/// inherently whole-window) and keeps the exact path.
bool EmgFeatureSupportsIncremental(EmgFeatureKind kind);

/// \brief O(hop) sliding-window state for the scalar time-domain
/// features: running Σ|x|, Σx², Σ|Δx| and the sign-change count over
/// one channel's current window. Sliding updates touch only the samples
/// (and sample pairs) entering or leaving the window, so IAV, MAV, RMS,
/// waveform length, and zero crossings update in O(hop) instead of
/// O(window). The zero-crossing count is integer-exact; the float sums
/// accumulate round-off relative to a fresh pass, which callers bound
/// with a periodic Recompute (see core/incremental_window.h for the
/// drift contract).
///
/// Each feature reads one statistic (Σ|x| for IAV and MAV, Σx² for RMS,
/// Σ|Δx| for waveform length, the count for zero crossings). Sums built
/// for a kind keep only that statistic — the others stay zero — and a
/// kept statistic takes exactly the same operations in the same order
/// as when all four are kept, so its value is bit-identical.
///
/// Pair bookkeeping convention: the window [begin, end) owns the
/// consecutive-sample pairs (i−1, i) for i in (begin, end) — exactly
/// the pairs WaveformLength and ZeroCrossings visit.
struct EmgWindowSums {
  /// Keeps all four statistics, so Emit serves every incremental kind.
  EmgWindowSums() = default;
  /// Keeps only the statistic `kind` emits (none for AR(4)); Emit then
  /// serves the kinds that read it. The extractor and
  /// StreamingClassifier build theirs this way.
  explicit EmgWindowSums(EmgFeatureKind kind);

  double sum_abs = 0.0;
  double sum_sq = 0.0;
  double waveform_length = 0.0;
  size_t zero_crossings = 0;

  /// Zeroes the statistics; the kept set stays.
  void Reset();

  /// Exact recomputation over samples[begin, end) — the drift-bounding
  /// refresh and the seed for the first window of a run.
  void Recompute(const double* samples, size_t begin, size_t end);

  /// Slides from window [old_begin, old_end) to [new_begin, new_end)
  /// over the same sample stream, removing and adding only the
  /// difference. Requires forward motion (new_begin >= old_begin,
  /// new_end >= old_end); callers handle disjoint windows by calling
  /// Recompute instead (Slide degrades to exactly that internally when
  /// the spans do not overlap).
  void Slide(const double* samples, size_t old_begin, size_t old_end,
             size_t new_begin, size_t new_end);

  /// Appends sample x at the tail of the window. The two-argument form
  /// also adds the (prev, x) pair; the one-argument form is for the
  /// very first sample of the window (no pair yet). Streaming callers
  /// (core/streaming.h) use these as frames arrive.
  void AddTailSample(double x);
  void AddTailSample(double x, double prev);

  /// Removes the head sample x and its (x, next) pair — the inverse of
  /// the tail pushes, applied when the window start advances by one.
  void RemoveHeadSample(double x, double next);

  /// Writes the EmgFeatureWidth(kind) value(s) of the maintained window
  /// (of length n) into `out`. Fails with kInvalidArgument for kinds
  /// without an incremental form (see EmgFeatureSupportsIncremental),
  /// and with kFailedPrecondition for a kind whose statistic these sums
  /// do not keep.
  Status Emit(EmgFeatureKind kind, size_t n, double* out) const;

 private:
  // Bit set of kept statistics (see features.cc); all by default.
  unsigned keep_ = ~0u;
};

}  // namespace mocemg

#endif  // MOCEMG_EMG_FEATURES_H_
