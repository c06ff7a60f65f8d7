/// \file biquad_lanes_x86.h
/// \brief Internal: the DF2T biquad lane kernel (KernelOps::
/// biquad_cascade_lanes) for the x86 SIMD backends. Included by
/// kernels_avx2.cc and kernels_avx512.cc, so each compiles it under its
/// own target flags (the AVX-512 copy gets 32 ymm registers, enough to
/// keep a four-section group in registers); everything here has
/// internal linkage, so the two copies never merge.
///
/// Four lanes per ymm, in lockstep. Each element performs the scalar
/// reference's multiplies, adds and subtracts in its order (separate
/// vmulpd/vaddpd/vsubpd — the TUs build with -ffp-contract=off), so every
/// lane's bits equal the one-lane scalar loop. A trailing group of 1-3
/// lanes loads and stores exactly its own doubles: a masked 32-byte store
/// would overlap the next frame's load, and a load cannot take its data
/// from a masked store in flight, which serializes the frames.

#ifndef MOCEMG_UTIL_KERNELS_BIQUAD_LANES_X86_H_
#define MOCEMG_UTIL_KERNELS_BIQUAD_LANES_X86_H_

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace mocemg {
namespace internal {
namespace {

// Sections per register group; a cascade is a chain of causal filters,
// so group after group over the whole signal gives the same bits as
// every section per frame.
constexpr size_t kBiquadGroup = 4;

template <size_t NL>
inline __m256d LoadLanes(const double* p) {
  if constexpr (NL == 1) return _mm256_zextpd128_pd256(_mm_load_sd(p));
  if constexpr (NL == 2) return _mm256_zextpd128_pd256(_mm_loadu_pd(p));
  if constexpr (NL == 3) {
    return _mm256_insertf128_pd(_mm256_zextpd128_pd256(_mm_loadu_pd(p)),
                                _mm_load_sd(p + 2), 1);
  }
  if constexpr (NL == 4) return _mm256_loadu_pd(p);
}

template <size_t NL>
inline void StoreLanes(double* p, __m256d v) {
  if constexpr (NL == 1) _mm_store_sd(p, _mm256_castpd256_pd128(v));
  if constexpr (NL == 2) _mm_storeu_pd(p, _mm256_castpd256_pd128(v));
  if constexpr (NL == 3) {
    _mm_storeu_pd(p, _mm256_castpd256_pd128(v));
    _mm_store_sd(p + 2, _mm256_extractf128_pd(v, 1));
  }
  if constexpr (NL == 4) _mm256_storeu_pd(p, v);
}

// NS sections over lanes [lane0, lane0 + NL) of every frame.
template <size_t NS, size_t NL>
void BiquadLaneGroup(const double* coeffs, double* state, double* data,
                     size_t frames, size_t lanes, size_t lane0,
                     bool reverse) {
  __m256d b0[NS], b1[NS], b2[NS], a1[NS], a2[NS], s1[NS], s2[NS];
  for (size_t k = 0; k < NS; ++k) {
    b0[k] = _mm256_broadcast_sd(coeffs + 5 * k);
    b1[k] = _mm256_broadcast_sd(coeffs + 5 * k + 1);
    b2[k] = _mm256_broadcast_sd(coeffs + 5 * k + 2);
    a1[k] = _mm256_broadcast_sd(coeffs + 5 * k + 3);
    a2[k] = _mm256_broadcast_sd(coeffs + 5 * k + 4);
    s1[k] = LoadLanes<NL>(state + 2 * k * lanes + lane0);
    s2[k] = LoadLanes<NL>(state + (2 * k + 1) * lanes + lane0);
  }
  // Unsigned wrap-around makes `step` walk backwards in reverse.
  size_t i = (reverse ? (frames - 1) * lanes : 0) + lane0;
  const size_t step = reverse ? size_t{0} - lanes : lanes;
  for (size_t f = 0; f < frames; ++f, i += step) {
    __m256d x = LoadLanes<NL>(data + i);
    for (size_t k = 0; k < NS; ++k) {
      const __m256d y = _mm256_add_pd(_mm256_mul_pd(b0[k], x), s1[k]);
      s1[k] = _mm256_add_pd(
          _mm256_sub_pd(_mm256_mul_pd(b1[k], x), _mm256_mul_pd(a1[k], y)),
          s2[k]);
      s2[k] =
          _mm256_sub_pd(_mm256_mul_pd(b2[k], x), _mm256_mul_pd(a2[k], y));
      x = y;
    }
    StoreLanes<NL>(data + i, x);
  }
  for (size_t k = 0; k < NS; ++k) {
    StoreLanes<NL>(state + 2 * k * lanes + lane0, s1[k]);
    StoreLanes<NL>(state + (2 * k + 1) * lanes + lane0, s2[k]);
  }
}

template <size_t NL>
void BiquadSectionGroup(const double* coeffs, size_t group, double* state,
                        double* data, size_t frames, size_t lanes,
                        size_t lane0, bool reverse) {
  switch (group) {
    case 1:
      BiquadLaneGroup<1, NL>(coeffs, state, data, frames, lanes, lane0,
                             reverse);
      break;
    case 2:
      BiquadLaneGroup<2, NL>(coeffs, state, data, frames, lanes, lane0,
                             reverse);
      break;
    case 3:
      BiquadLaneGroup<3, NL>(coeffs, state, data, frames, lanes, lane0,
                             reverse);
      break;
    default:
      BiquadLaneGroup<4, NL>(coeffs, state, data, frames, lanes, lane0,
                             reverse);
      break;
  }
}

void X86BiquadCascadeLanes(const double* coeffs, size_t sections,
                           double* state, double* data, size_t frames,
                           size_t lanes, bool reverse) {
  for (size_t s0 = 0; s0 < sections; s0 += kBiquadGroup) {
    const double* c = coeffs + 5 * s0;
    double* st = state + 2 * s0 * lanes;
    const size_t group = std::min(sections - s0, kBiquadGroup);
    size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
      BiquadSectionGroup<4>(c, group, st, data, frames, lanes, l, reverse);
    }
    switch (lanes - l) {
      case 1:
        BiquadSectionGroup<1>(c, group, st, data, frames, lanes, l, reverse);
        break;
      case 2:
        BiquadSectionGroup<2>(c, group, st, data, frames, lanes, l, reverse);
        break;
      case 3:
        BiquadSectionGroup<3>(c, group, st, data, frames, lanes, l, reverse);
        break;
      default:
        break;
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace mocemg

#endif  // MOCEMG_UTIL_KERNELS_BIQUAD_LANES_X86_H_
