/// \file weighted_row_sums_x86.h
/// \brief Internal: FCM's M-step sums (KernelOps::weighted_row_sums) for
/// the x86 SIMD backends. Included by kernels_avx2.cc and
/// kernels_avx512.cc; each instantiates X86WeightedRowSums at its own
/// vector width (Ymm, or Zmm where the TU is compiled for AVX-512F).
/// Everything here has internal linkage, so the copies never merge.
///
/// Dims sit in SIMD lanes. A block of up to kCentres centre rows, each
/// kDimVecs vectors wide, stays in registers while the points stream
/// past, and a point's weights for the block are broadcast one centre
/// at a time. Every (centre, dim) lane therefore adds w · x for k in
/// increasing order from +0.0, one vmulpd and one vaddpd per term (the
/// TUs build with -ffp-contract=off), which is the scalar loop's own
/// order. The totals ride along with centres in lanes. The last dim
/// vector of a row and the last totals vector load and store only
/// their own lanes through a mask, so nothing past a row is read into
/// a result or written.

#ifndef MOCEMG_UTIL_KERNELS_WEIGHTED_ROW_SUMS_X86_H_
#define MOCEMG_UTIL_KERNELS_WEIGHTED_ROW_SUMS_X86_H_

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace mocemg {
namespace internal {
namespace {

// Four doubles per register. 2 centres × 4 vectors (16 dims) of
// accumulators, the point's 4 dim vectors, a broadcast and the totals
// fit AVX2's 16 ymm registers.
struct Ymm {
  using V = __m256d;
  using M = __m256i;
  static constexpr size_t kLanes = 4;
  static constexpr size_t kDimVecs = 4;
  static constexpr size_t kCentres = 2;
  static V Zero() { return _mm256_setzero_pd(); }
  static V Broadcast(const double* p) { return _mm256_broadcast_sd(p); }
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static M FirstLanes(size_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static V Load(const double* p, M m) { return _mm256_maskload_pd(p, m); }
  static void Store(double* p, M m, V v) { _mm256_maskstore_pd(p, m, v); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
};

#if defined(__AVX512F__)
// Eight doubles per register. At the paper's d = 16 a centre row is two
// zmm, so 8 centres × 2 vectors of accumulators use 16 of the 32 zmm.
struct Zmm {
  using V = __m512d;
  using M = __mmask8;
  static constexpr size_t kLanes = 8;
  static constexpr size_t kDimVecs = 2;
  static constexpr size_t kCentres = 8;
  static V Zero() { return _mm512_setzero_pd(); }
  static V Broadcast(const double* p) { return _mm512_set1_pd(*p); }
  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static M FirstLanes(size_t n) {
    return static_cast<M>(n >= 8 ? 0xFFu : (1u << n) - 1u);
  }
  static V Load(const double* p, M m) { return _mm512_maskz_loadu_pd(m, p); }
  static void Store(double* p, M m, V v) { _mm512_mask_storeu_pd(p, m, v); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
};
#endif

// Centres [i0, i0 + B) over the R dim vectors from j0, whose last one
// holds the lanes in `tail`. Writes the block's sums, and its totals
// when j0 == 0 (later dim blocks compute the same totals again).
template <class T, size_t B, size_t R>
void RowSumsBlock(const double* w, size_t c, const double* x, size_t d,
                  size_t rows, size_t i0, size_t j0, typename T::M tail,
                  double* sums, double* totals) {
  using V = typename T::V;
  constexpr size_t L = T::kLanes;
  constexpr size_t NT = (B + L - 1) / L;
  V acc[B][R];
  V tot[NT];
  for (size_t b = 0; b < B; ++b) {
    for (size_t r = 0; r < R; ++r) acc[b][r] = T::Zero();
  }
  for (size_t t = 0; t < NT; ++t) tot[t] = T::Zero();
  for (size_t k = 0; k < rows; ++k) {
    const double* wk = w + k * c + i0;
    const double* xk = x + k * d + j0;
    V xv[R];
    for (size_t r = 0; r + 1 < R; ++r) xv[r] = T::Load(xk + r * L);
    xv[R - 1] = T::Load(xk + (R - 1) * L, tail);
    for (size_t b = 0; b < B; ++b) {
      const V wb = T::Broadcast(wk + b);
      for (size_t r = 0; r < R; ++r) {
        acc[b][r] = T::Add(acc[b][r], T::Mul(wb, xv[r]));
      }
    }
    for (size_t t = 0; t < NT; ++t) {
      tot[t] = T::Add(tot[t], T::Load(wk + t * L,
                                      T::FirstLanes(B - t * L)));
    }
  }
  for (size_t b = 0; b < B; ++b) {
    double* row = sums + (i0 + b) * d + j0;
    for (size_t r = 0; r + 1 < R; ++r) T::Store(row + r * L, acc[b][r]);
    T::Store(row + (R - 1) * L, tail, acc[b][R - 1]);
  }
  if (j0 == 0) {
    for (size_t t = 0; t < NT; ++t) {
      T::Store(totals + i0 + t * L, T::FirstLanes(B - t * L), tot[t]);
    }
  }
}

// Maps a block's runtime centre count nb <= B and dim vector count
// nvec <= R onto its instantiation.
template <class T, size_t B, size_t R>
void RowSumsPick(size_t nb, size_t nvec, const double* w, size_t c,
                 const double* x, size_t d, size_t rows, size_t i0,
                 size_t j0, typename T::M tail, double* sums,
                 double* totals) {
  if constexpr (B > 1) {
    if (nb < B) {
      return RowSumsPick<T, B - 1, R>(nb, nvec, w, c, x, d, rows, i0, j0,
                                      tail, sums, totals);
    }
  }
  if constexpr (R > 1) {
    if (nvec < R) {
      return RowSumsPick<T, B, R - 1>(nb, nvec, w, c, x, d, rows, i0, j0,
                                      tail, sums, totals);
    }
  }
  RowSumsBlock<T, B, R>(w, c, x, d, rows, i0, j0, tail, sums, totals);
}

template <class T>
void X86WeightedRowSums(const double* w, size_t c, const double* x,
                        size_t d, size_t rows, double* sums,
                        double* totals) {
  constexpr size_t L = T::kLanes;
  constexpr size_t span_max = T::kDimVecs * L;
  for (size_t j0 = 0; j0 < d; j0 += span_max) {
    const size_t span = std::min(d - j0, span_max);
    const size_t nvec = (span + L - 1) / L;
    const typename T::M tail = T::FirstLanes(span - (nvec - 1) * L);
    for (size_t i0 = 0; i0 < c; i0 += T::kCentres) {
      const size_t nb = std::min(c - i0, T::kCentres);
      RowSumsPick<T, T::kCentres, T::kDimVecs>(nb, nvec, w, c, x, d, rows,
                                               i0, j0, tail, sums, totals);
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace mocemg

#endif  // MOCEMG_UTIL_KERNELS_WEIGHTED_ROW_SUMS_X86_H_
