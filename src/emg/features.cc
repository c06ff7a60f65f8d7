#include "emg/features.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace mocemg {

double IntegralOfAbsoluteValue(const double* samples, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::fabs(samples[i]);
  return sum;
}

double IntegralOfAbsoluteValue(const std::vector<double>& samples) {
  return IntegralOfAbsoluteValue(samples.data(), samples.size());
}

double MeanAbsoluteValue(const double* samples, size_t n) {
  if (n == 0) return 0.0;
  return IntegralOfAbsoluteValue(samples, n) / static_cast<double>(n);
}

double RootMeanSquare(const double* samples, size_t n) {
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += samples[i] * samples[i];
  return std::sqrt(sum / static_cast<double>(n));
}

double WaveformLength(const double* samples, size_t n) {
  double sum = 0.0;
  for (size_t i = 1; i < n; ++i) {
    sum += std::fabs(samples[i] - samples[i - 1]);
  }
  return sum;
}

size_t ZeroCrossings(const double* samples, size_t n, double threshold) {
  size_t count = 0;
  for (size_t i = 1; i < n; ++i) {
    const bool sign_change = (samples[i] > 0.0 && samples[i - 1] < 0.0) ||
                             (samples[i] < 0.0 && samples[i - 1] > 0.0);
    if (sign_change &&
        std::fabs(samples[i] - samples[i - 1]) >= threshold) {
      ++count;
    }
  }
  return count;
}

size_t SlopeSignChanges(const double* samples, size_t n, double threshold) {
  size_t count = 0;
  for (size_t i = 1; i + 1 < n; ++i) {
    const double d1 = samples[i] - samples[i - 1];
    const double d2 = samples[i] - samples[i + 1];
    if (d1 * d2 > 0.0 &&
        (std::fabs(d1) >= threshold || std::fabs(d2) >= threshold)) {
      ++count;
    }
  }
  return count;
}

size_t WillisonAmplitude(const double* samples, size_t n,
                         double threshold) {
  size_t count = 0;
  for (size_t i = 1; i < n; ++i) {
    if (std::fabs(samples[i] - samples[i - 1]) > threshold) ++count;
  }
  return count;
}

Result<std::vector<double>> EmgHistogram(const double* samples, size_t n,
                                         size_t bins, double lo,
                                         double hi) {
  if (bins == 0) return Status::InvalidArgument("histogram needs bins > 0");
  if (lo >= hi) return Status::InvalidArgument("histogram needs lo < hi");
  std::vector<double> counts(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < n; ++i) {
    double b = (samples[i] - lo) / width;
    const ptrdiff_t idx = std::clamp<ptrdiff_t>(
        static_cast<ptrdiff_t>(std::floor(b)), 0,
        static_cast<ptrdiff_t>(bins) - 1);
    counts[static_cast<size_t>(idx)] += 1.0;
  }
  return counts;
}

Result<std::vector<double>> BurgArCoefficients(const double* samples,
                                               size_t n, size_t order) {
  if (order == 0) return Status::InvalidArgument("AR order must be > 0");
  if (n <= order) {
    return Status::InvalidArgument(
        "AR(" + std::to_string(order) + ") needs more than " +
        std::to_string(order) + " samples, got " + std::to_string(n));
  }
  // Burg recursion. f/b are the forward/backward prediction errors.
  std::vector<double> f(samples, samples + n);
  std::vector<double> b(samples, samples + n);
  std::vector<double> a(order, 0.0);
  double dk = 0.0;
  for (size_t i = 0; i < n; ++i) dk += 2.0 * samples[i] * samples[i];
  dk -= samples[0] * samples[0] + samples[n - 1] * samples[n - 1];
  if (dk <= 0.0) {
    return Status::NumericalError("zero-energy signal in Burg AR fit");
  }
  std::vector<double> a_prev(order, 0.0);
  for (size_t k = 0; k < order; ++k) {
    double num = 0.0;
    for (size_t i = k + 1; i < n; ++i) num += f[i] * b[i - k - 1];
    const double mu = 2.0 * num / dk;
    // Levinson update of the coefficient vector.
    a_prev.assign(a.begin(), a.end());
    a[k] = mu;
    for (size_t i = 0; i < k; ++i) a[i] = a_prev[i] - mu * a_prev[k - 1 - i];
    // Update prediction errors.
    for (size_t i = n - 1; i > k; --i) {
      const double f_old = f[i];
      const double b_old = b[i - k - 1];
      f[i] = f_old - mu * b_old;
      b[i - k - 1] = b_old - mu * f_old;
    }
    dk = (1.0 - mu * mu) * dk - f[k + 1] * f[k + 1] -
         b[n - 2 - k] * b[n - 2 - k];
    if (dk <= 0.0) break;  // perfectly predicted; remaining coeffs zero
  }
  return a;
}

const char* EmgFeatureKindName(EmgFeatureKind kind) {
  switch (kind) {
    case EmgFeatureKind::kIav:
      return "iav";
    case EmgFeatureKind::kMav:
      return "mav";
    case EmgFeatureKind::kRms:
      return "rms";
    case EmgFeatureKind::kWaveformLength:
      return "wl";
    case EmgFeatureKind::kZeroCrossings:
      return "zc";
    case EmgFeatureKind::kAr4:
      return "ar4";
  }
  return "?";
}

size_t EmgFeatureWidth(EmgFeatureKind kind) {
  return kind == EmgFeatureKind::kAr4 ? 4 : 1;
}

Status ExtractEmgFeatureInto(EmgFeatureKind kind, const double* samples,
                             size_t n, double* out) {
  if (n == 0) return Status::InvalidArgument("empty feature window");
  switch (kind) {
    case EmgFeatureKind::kIav:
      out[0] = IntegralOfAbsoluteValue(samples, n);
      return Status::OK();
    case EmgFeatureKind::kMav:
      out[0] = MeanAbsoluteValue(samples, n);
      return Status::OK();
    case EmgFeatureKind::kRms:
      out[0] = RootMeanSquare(samples, n);
      return Status::OK();
    case EmgFeatureKind::kWaveformLength:
      out[0] = WaveformLength(samples, n);
      return Status::OK();
    case EmgFeatureKind::kZeroCrossings:
      out[0] = static_cast<double>(ZeroCrossings(samples, n));
      return Status::OK();
    case EmgFeatureKind::kAr4: {
      // Burg allocates its recursion buffers; AR(4) is an ablation
      // path, not the paper default, so it stays off the zero-alloc
      // fast path.
      auto ar = BurgArCoefficients(samples, n, 4);
      if (!ar.ok()) {
        // Flat windows (e.g. rest periods of rectified EMG) carry no AR
        // structure; degrade to zeros rather than failing the pipeline.
        std::fill(out, out + 4, 0.0);
        return Status::OK();
      }
      std::copy(ar->begin(), ar->end(), out);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown EMG feature kind");
}

Result<std::vector<double>> ExtractEmgFeature(EmgFeatureKind kind,
                                              const double* samples,
                                              size_t n) {
  std::vector<double> out(EmgFeatureWidth(kind), 0.0);
  MOCEMG_RETURN_NOT_OK(ExtractEmgFeatureInto(kind, samples, n, out.data()));
  return out;
}

bool EmgFeatureSupportsIncremental(EmgFeatureKind kind) {
  return kind != EmgFeatureKind::kAr4;
}

namespace {

// The exact predicate ZeroCrossings applies at threshold 0 (the value
// ExtractEmgFeatureInto uses): a strict sign change whose swing is a
// comparable number. Mirrored here so add and remove cancel exactly.
inline bool PairCrossesZero(double a, double b) {
  const bool sign_change = (b > 0.0 && a < 0.0) || (b < 0.0 && a > 0.0);
  return sign_change && std::fabs(b - a) >= 0.0;
}

// EmgWindowSums' statistics, as bits of its kept set.
constexpr unsigned kSumAbs = 1;
constexpr unsigned kSumSq = 2;
constexpr unsigned kWaveformLength = 4;
constexpr unsigned kZeroCrossings = 8;

// The statistic a kind's incremental form reads; 0 for AR(4).
unsigned StatisticOf(EmgFeatureKind kind) {
  switch (kind) {
    case EmgFeatureKind::kIav:
    case EmgFeatureKind::kMav:
      return kSumAbs;
    case EmgFeatureKind::kRms:
      return kSumSq;
    case EmgFeatureKind::kWaveformLength:
      return kWaveformLength;
    case EmgFeatureKind::kZeroCrossings:
      return kZeroCrossings;
    case EmgFeatureKind::kAr4:
      break;
  }
  return 0;
}

}  // namespace

EmgWindowSums::EmgWindowSums(EmgFeatureKind kind)
    : keep_(StatisticOf(kind)) {}

void EmgWindowSums::Reset() {
  sum_abs = 0.0;
  sum_sq = 0.0;
  waveform_length = 0.0;
  zero_crossings = 0;
}

void EmgWindowSums::AddTailSample(double x) {
  if (keep_ & kSumAbs) sum_abs += std::fabs(x);
  if (keep_ & kSumSq) sum_sq += x * x;
}

void EmgWindowSums::AddTailSample(double x, double prev) {
  AddTailSample(x);
  if (keep_ & kWaveformLength) waveform_length += std::fabs(x - prev);
  if ((keep_ & kZeroCrossings) && PairCrossesZero(prev, x)) {
    ++zero_crossings;
  }
}

void EmgWindowSums::RemoveHeadSample(double x, double next) {
  if (keep_ & kSumAbs) sum_abs -= std::fabs(x);
  if (keep_ & kSumSq) sum_sq -= x * x;
  if (keep_ & kWaveformLength) waveform_length -= std::fabs(next - x);
  if ((keep_ & kZeroCrossings) && PairCrossesZero(x, next)) {
    --zero_crossings;
  }
}

void EmgWindowSums::Recompute(const double* samples, size_t begin,
                              size_t end) {
  Reset();
  // One loop per kept statistic; each accumulator takes its terms in
  // ascending sample order, whichever others are kept.
  if (keep_ & kSumAbs) {
    for (size_t i = begin; i < end; ++i) sum_abs += std::fabs(samples[i]);
  }
  if (keep_ & kSumSq) {
    for (size_t i = begin; i < end; ++i) sum_sq += samples[i] * samples[i];
  }
  if (keep_ & kWaveformLength) {
    for (size_t i = begin + 1; i < end; ++i) {
      waveform_length += std::fabs(samples[i] - samples[i - 1]);
    }
  }
  if (keep_ & kZeroCrossings) {
    for (size_t i = begin + 1; i < end; ++i) {
      if (PairCrossesZero(samples[i - 1], samples[i])) ++zero_crossings;
    }
  }
}

void EmgWindowSums::Slide(const double* samples, size_t old_begin,
                          size_t old_end, size_t new_begin,
                          size_t new_end) {
  if (new_begin >= old_end) {
    // Disjoint windows (hop >= window): nothing carries over.
    Recompute(samples, new_begin, new_end);
    return;
  }
  // Scalars: the old window owns [old_begin, old_end), the new one
  // [new_begin, new_end); with overlap the difference is two ranges.
  if (keep_ & kSumAbs) {
    for (size_t i = old_begin; i < new_begin; ++i) {
      sum_abs -= std::fabs(samples[i]);
    }
    for (size_t i = old_end; i < new_end; ++i) {
      sum_abs += std::fabs(samples[i]);
    }
  }
  if (keep_ & kSumSq) {
    for (size_t i = old_begin; i < new_begin; ++i) {
      sum_sq -= samples[i] * samples[i];
    }
    for (size_t i = old_end; i < new_end; ++i) {
      sum_sq += samples[i] * samples[i];
    }
  }
  // Pairs (i−1, i): owned for i in (begin, end), so the leaving set is
  // i in [old_begin+1, new_begin+1) and the entering set is
  // i in [max(old_end, new_begin+1), new_end).
  const size_t enter = std::max(old_end, new_begin + 1);
  if (keep_ & kWaveformLength) {
    for (size_t i = old_begin + 1; i < new_begin + 1; ++i) {
      waveform_length -= std::fabs(samples[i] - samples[i - 1]);
    }
    for (size_t i = enter; i < new_end; ++i) {
      waveform_length += std::fabs(samples[i] - samples[i - 1]);
    }
  }
  if (keep_ & kZeroCrossings) {
    for (size_t i = old_begin + 1; i < new_begin + 1; ++i) {
      if (PairCrossesZero(samples[i - 1], samples[i])) --zero_crossings;
    }
    for (size_t i = enter; i < new_end; ++i) {
      if (PairCrossesZero(samples[i - 1], samples[i])) ++zero_crossings;
    }
  }
}

Status EmgWindowSums::Emit(EmgFeatureKind kind, size_t n,
                           double* out) const {
  if (n == 0) return Status::InvalidArgument("empty feature window");
  const unsigned needed = StatisticOf(kind);
  if (needed != 0 && (keep_ & needed) == 0) {
    return Status::FailedPrecondition(
        std::string("these window sums do not keep the statistic EMG "
                    "feature '") +
        EmgFeatureKindName(kind) + "' reads");
  }
  switch (kind) {
    case EmgFeatureKind::kIav:
      out[0] = sum_abs;
      return Status::OK();
    case EmgFeatureKind::kMav:
      out[0] = sum_abs / static_cast<double>(n);
      return Status::OK();
    case EmgFeatureKind::kRms:
      // Removal round-off can drive a near-zero running Σx² a hair
      // negative; clamp so the sqrt stays real.
      out[0] = std::sqrt(std::max(sum_sq, 0.0) / static_cast<double>(n));
      return Status::OK();
    case EmgFeatureKind::kWaveformLength:
      out[0] = waveform_length;
      return Status::OK();
    case EmgFeatureKind::kZeroCrossings:
      out[0] = static_cast<double>(zero_crossings);
      return Status::OK();
    case EmgFeatureKind::kAr4:
      break;
  }
  return Status::InvalidArgument(
      std::string("no incremental form for EMG feature '") +
      EmgFeatureKindName(kind) + "'");
}

}  // namespace mocemg
