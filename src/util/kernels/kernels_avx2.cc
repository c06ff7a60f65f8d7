/// \file kernels_avx2.cc
/// \brief AVX2 backend. This TU is compiled with `-mavx2
/// -ffp-contract=off` (see src/util/CMakeLists.txt) and must only be
/// reached through runtime dispatch on CPUs with AVX2.
///
/// Bit-exactness strategy (kernel_dispatch.h): the double kernels keep
/// ONE 4-wide ymm accumulator whose lanes are exactly the scalar
/// reference's a0..a3 — each main-loop step is a vector multiply then a
/// vector add (never FMA: fused rounding would change bits), the <= 3
/// remainder dims are handled on the extracted lanes with the scalar
/// code, and the lanes combine as (a0 + a1) + (a2 + a3). Every lane
/// performs the same IEEE ops in the same order as the scalar loop, so
/// the result is bit-identical for every input, NaN/Inf included.
///
/// The integer coarse kernels are exact whatever the evaluation order:
/// |q − c| via max_epu8/min_epu8, widened to i16 and squared pairwise
/// into i32 lanes with pmaddwd (the widening-MAC class; vpdpbusd is
/// unusable here because |q − c| can exceed the signed-byte range), or
/// vpmaddubsw directly on 4-bit nibble diffs (<= 15, so the u8 × s8
/// product is safe). Per-i32-lane sums stay below 2^31 for d up to the
/// index build gate (60000), and the true total is < 2^32, so the
/// uint32 result equals the scalar reference exactly.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "util/kernels/biquad_lanes_x86.h"
#include "util/kernels/kernel_backend.h"
#include "util/kernels/weighted_row_sums_x86.h"

namespace mocemg {
namespace internal {
namespace {

// ---------------------------------------------------------------------
// double kernels: 4-lane contract on one ymm accumulator.

inline double CombineTail(__m256d acc, const double* x, const double* y,
                          size_t i, size_t d, bool squared) {
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  if (squared) {
    if (i < d) {
      const double d0 = x[i] - y[i];
      a[0] += d0 * d0;
    }
    if (i + 1 < d) {
      const double d1 = x[i + 1] - y[i + 1];
      a[1] += d1 * d1;
    }
    if (i + 2 < d) {
      const double d2 = x[i + 2] - y[i + 2];
      a[2] += d2 * d2;
    }
  } else {
    if (i < d) a[0] += x[i] * y[i];
    if (i + 1 < d) a[1] += x[i + 1] * y[i + 1];
    if (i + 2 < d) a[2] += x[i + 2] * y[i + 2];
  }
  return (a[0] + a[1]) + (a[2] + a[3]);
}

double Avx2SquaredL2Pair(const double* x, const double* y, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return CombineTail(acc, x, y, i, d, /*squared=*/true);
}

double Avx2DotPair(const double* x, const double* y, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  return CombineTail(acc, x, y, i, d, /*squared=*/false);
}

void Avx2L2OneToMany(const double* query, const double* block, size_t rows,
                     size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Avx2SquaredL2Pair(query, block + r * d, d);
  }
}

void Avx2L2DotOneToMany(const double* query, double query_sq,
                        const double* block, const double* norms_sq,
                        size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] =
        query_sq + norms_sq[r] - 2.0 * Avx2DotPair(query, block + r * d, d);
  }
}

// ---------------------------------------------------------------------
// float32 mirror kernels: the same ONE-4-wide-accumulator contract at
// fp32. A 256-bit step covers 8 floats; adding its low xmm then its
// high xmm into the accumulator reproduces the scalar loop exactly
// (lane j sums dim i+j, then dim i+4+j) — the trick the AVX-512 double
// kernels use for their 8-dim steps.

inline float CombineTailF32(__m128 acc, const float* x, const float* y,
                            size_t i, size_t d) {
  alignas(16) float a[4];
  _mm_store_ps(a, acc);
  if (i < d) a[0] += x[i] * y[i];
  if (i + 1 < d) a[1] += x[i + 1] * y[i + 1];
  if (i + 2 < d) a[2] += x[i + 2] * y[i + 2];
  return (a[0] + a[1]) + (a[2] + a[3]);
}

inline float Avx2DotPairF32(const float* x, const float* y, size_t d) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 p =
        _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    acc = _mm_add_ps(acc, _mm256_castps256_ps128(p));
    acc = _mm_add_ps(acc, _mm256_extractf128_ps(p, 1));
  }
  if (i + 4 <= d) {
    acc = _mm_add_ps(acc,
                     _mm_mul_ps(_mm_loadu_ps(x + i), _mm_loadu_ps(y + i)));
    i += 4;
  }
  return CombineTailF32(acc, x, y, i, d);
}

void Avx2L2DotF32OneToMany(const float* query, float query_sq,
                           const float* block, const float* norms_sq,
                           size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0f * Avx2DotPairF32(query, block + r * d, d);
  }
}

void Avx2RowNormsF32(const float* block, size_t rows, size_t d,
                     float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = block + r * d;
    out[r] = Avx2DotPairF32(row, row, d);
  }
}

// ---------------------------------------------------------------------
// int8 coarse kernel.

inline uint32_t HorizontalSumU32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(v));
}

inline uint32_t Ssd8Row(const uint8_t* q, const uint8_t* c, size_t d) {
  const __m256i zero256 = _mm256_setzero_si256();
  __m256i acc256 = zero256;
  size_t j = 0;
  for (; j + 32 <= d; j += 32) {
    const __m256i vq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j));
    const __m256i ad =
        _mm256_sub_epi8(_mm256_max_epu8(vq, vc), _mm256_min_epu8(vq, vc));
    const __m256i lo = _mm256_unpacklo_epi8(ad, zero256);
    const __m256i hi = _mm256_unpackhi_epi8(ad, zero256);
    acc256 = _mm256_add_epi32(acc256, _mm256_madd_epi16(lo, lo));
    acc256 = _mm256_add_epi32(acc256, _mm256_madd_epi16(hi, hi));
  }
  __m128i acc = _mm_add_epi32(_mm256_castsi256_si128(acc256),
                              _mm256_extracti128_si256(acc256, 1));
  if (j + 16 <= d) {
    const __m128i zero = _mm_setzero_si128();
    const __m128i vq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + j));
    const __m128i vc =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + j));
    const __m128i ad =
        _mm_sub_epi8(_mm_max_epu8(vq, vc), _mm_min_epu8(vq, vc));
    const __m128i lo = _mm_unpacklo_epi8(ad, zero);
    const __m128i hi = _mm_unpackhi_epi8(ad, zero);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(lo, lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(hi, hi));
    j += 16;
  }
  uint32_t sum = HorizontalSumU32(acc);
  for (; j < d; ++j) {
    const int32_t diff =
        static_cast<int32_t>(q[j]) - static_cast<int32_t>(c[j]);
    sum += static_cast<uint32_t>(diff * diff);
  }
  return sum;
}

void Avx2Ssd8OneToMany(const uint8_t* qcodes, const uint8_t* codes,
                       size_t rows, size_t d, uint32_t* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Ssd8Row(qcodes, codes + r * d, d);
  }
}

// ---------------------------------------------------------------------
// int4 (nibble-packed) coarse kernel. `bytes` packed bytes hold 2*bytes
// nibble dims; an odd-d pad nibble is 0 on both sides and adds 0.

inline uint32_t Ssd4Row(const uint8_t* q, const uint8_t* c, size_t bytes) {
  const __m256i mask = _mm256_set1_epi8(0x0F);
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc256 = _mm256_setzero_si256();
  size_t b = 0;
  for (; b + 32 <= bytes; b += 32) {
    const __m256i vq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + b));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + b));
    const __m256i qlo = _mm256_and_si256(vq, mask);
    const __m256i clo = _mm256_and_si256(vc, mask);
    const __m256i qhi = _mm256_and_si256(_mm256_srli_epi16(vq, 4), mask);
    const __m256i chi = _mm256_and_si256(_mm256_srli_epi16(vc, 4), mask);
    const __m256i adlo =
        _mm256_sub_epi8(_mm256_max_epu8(qlo, clo), _mm256_min_epu8(qlo, clo));
    const __m256i adhi =
        _mm256_sub_epi8(_mm256_max_epu8(qhi, chi), _mm256_min_epu8(qhi, chi));
    // Nibble diffs are <= 15, so vpmaddubsw's u8 x s8 pairwise product
    // (<= 2 * 225 per i16 lane) cannot overflow; summing the lo and hi
    // halves stays <= 900, still exact in i16.
    const __m256i p = _mm256_add_epi16(_mm256_maddubs_epi16(adlo, adlo),
                                       _mm256_maddubs_epi16(adhi, adhi));
    acc256 = _mm256_add_epi32(acc256, _mm256_madd_epi16(p, ones));
  }
  __m128i acc = _mm_add_epi32(_mm256_castsi256_si128(acc256),
                              _mm256_extracti128_si256(acc256, 1));
  if (b + 16 <= bytes) {
    const __m128i mask128 = _mm_set1_epi8(0x0F);
    const __m128i ones128 = _mm_set1_epi16(1);
    const __m128i vq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + b));
    const __m128i vc =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + b));
    const __m128i qlo = _mm_and_si128(vq, mask128);
    const __m128i clo = _mm_and_si128(vc, mask128);
    const __m128i qhi = _mm_and_si128(_mm_srli_epi16(vq, 4), mask128);
    const __m128i chi = _mm_and_si128(_mm_srli_epi16(vc, 4), mask128);
    const __m128i adlo =
        _mm_sub_epi8(_mm_max_epu8(qlo, clo), _mm_min_epu8(qlo, clo));
    const __m128i adhi =
        _mm_sub_epi8(_mm_max_epu8(qhi, chi), _mm_min_epu8(qhi, chi));
    const __m128i p = _mm_add_epi16(_mm_maddubs_epi16(adlo, adlo),
                                    _mm_maddubs_epi16(adhi, adhi));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(p, ones128));
    b += 16;
  }
  uint32_t sum = HorizontalSumU32(acc);
  for (; b < bytes; ++b) {
    const int32_t dlo = static_cast<int32_t>(q[b] & 0x0F) -
                        static_cast<int32_t>(c[b] & 0x0F);
    const int32_t dhi =
        static_cast<int32_t>(q[b] >> 4) - static_cast<int32_t>(c[b] >> 4);
    sum += static_cast<uint32_t>(dlo * dlo + dhi * dhi);
  }
  return sum;
}

void Avx2Ssd4OneToMany(const uint8_t* qpacked, const uint8_t* packed,
                       size_t rows, size_t d, uint32_t* out) {
  const size_t bytes = (d + 1) / 2;
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Ssd4Row(qpacked, packed + r * bytes, bytes);
  }
}

// ---------------------------------------------------------------------
// gather refine. The one-to-many kernels above are latency-bound: one
// accumulator per pair means every 4-dim step waits on the previous
// vector add. Here 4 independent rows are kept in flight — 4
// accumulator chains sharing one query load — which hides the add
// latency. Each chain performs the pair kernel's exact op sequence
// (multiply then add, same tail handling), so every row is
// bit-identical to squared_l2_pair whatever the grouping.

inline void Avx2SquaredL24Rows(const double* x, const double* y0,
                               const double* y1, const double* y2,
                               const double* y3, size_t d, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d d0 = _mm256_sub_pd(vx, _mm256_loadu_pd(y0 + i));
    const __m256d d1 = _mm256_sub_pd(vx, _mm256_loadu_pd(y1 + i));
    const __m256d d2 = _mm256_sub_pd(vx, _mm256_loadu_pd(y2 + i));
    const __m256d d3 = _mm256_sub_pd(vx, _mm256_loadu_pd(y3 + i));
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
  }
  out[0] = CombineTail(a0, x, y0, i, d, /*squared=*/true);
  out[1] = CombineTail(a1, x, y1, i, d, /*squared=*/true);
  out[2] = CombineTail(a2, x, y2, i, d, /*squared=*/true);
  out[3] = CombineTail(a3, x, y3, i, d, /*squared=*/true);
}

void Avx2L2Gather(const double* query, const double* block,
                  const uint32_t* row_indices, size_t n, size_t d,
                  double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx2SquaredL24Rows(query,
                       block + static_cast<size_t>(row_indices[i]) * d,
                       block + static_cast<size_t>(row_indices[i + 1]) * d,
                       block + static_cast<size_t>(row_indices[i + 2]) * d,
                       block + static_cast<size_t>(row_indices[i + 3]) * d,
                       d, out + i);
  }
  for (; i < n; ++i) {
    out[i] = Avx2SquaredL2Pair(
        query, block + static_cast<size_t>(row_indices[i]) * d, d);
  }
}

// Tiled exact scan (kernel_dispatch.h): a tile's 8 rows fill two ymm
// (rows 0-3 and 4-7), and each of the pair kernel's four accumulators
// is one such pair, so every lane does SquaredL2's per-dim subtract,
// multiply and add, with no horizontal reduction and no scalar tail.
// The eight accumulators are independent add chains.

static_assert(kL2TileRows == 8, "a tile is two ymm of doubles");

inline __m256d TileSquares(__m256d q, const double* col) {
  const __m256d diff = _mm256_sub_pd(q, _mm256_loadu_pd(col));
  return _mm256_mul_pd(diff, diff);
}

void Avx2L2Tiles(const double* query, const double* tiles, size_t rows,
                 size_t d, double* out) {
  for (size_t r0 = 0; r0 < rows; r0 += kL2TileRows) {
    const double* tile = tiles + r0 * d;
    __m256d lo0 = _mm256_setzero_pd(), hi0 = _mm256_setzero_pd();
    __m256d lo1 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
    __m256d lo2 = _mm256_setzero_pd(), hi2 = _mm256_setzero_pd();
    __m256d lo3 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= d; i += 4) {
      const double* col = tile + i * kL2TileRows;
      __m256d q = _mm256_set1_pd(query[i]);
      lo0 = _mm256_add_pd(lo0, TileSquares(q, col));
      hi0 = _mm256_add_pd(hi0, TileSquares(q, col + 4));
      q = _mm256_set1_pd(query[i + 1]);
      lo1 = _mm256_add_pd(lo1, TileSquares(q, col + 8));
      hi1 = _mm256_add_pd(hi1, TileSquares(q, col + 12));
      q = _mm256_set1_pd(query[i + 2]);
      lo2 = _mm256_add_pd(lo2, TileSquares(q, col + 16));
      hi2 = _mm256_add_pd(hi2, TileSquares(q, col + 20));
      q = _mm256_set1_pd(query[i + 3]);
      lo3 = _mm256_add_pd(lo3, TileSquares(q, col + 24));
      hi3 = _mm256_add_pd(hi3, TileSquares(q, col + 28));
    }
    // Remainder dims land in accumulators 0..2, as in the pair kernel.
    const double* col = tile + i * kL2TileRows;
    if (i < d) {
      const __m256d q = _mm256_set1_pd(query[i]);
      lo0 = _mm256_add_pd(lo0, TileSquares(q, col));
      hi0 = _mm256_add_pd(hi0, TileSquares(q, col + 4));
    }
    if (i + 1 < d) {
      const __m256d q = _mm256_set1_pd(query[i + 1]);
      lo1 = _mm256_add_pd(lo1, TileSquares(q, col + 8));
      hi1 = _mm256_add_pd(hi1, TileSquares(q, col + 12));
    }
    if (i + 2 < d) {
      const __m256d q = _mm256_set1_pd(query[i + 2]);
      lo2 = _mm256_add_pd(lo2, TileSquares(q, col + 16));
      hi2 = _mm256_add_pd(hi2, TileSquares(q, col + 20));
    }
    const __m256d lo =
        _mm256_add_pd(_mm256_add_pd(lo0, lo1), _mm256_add_pd(lo2, lo3));
    const __m256d hi =
        _mm256_add_pd(_mm256_add_pd(hi0, hi1), _mm256_add_pd(hi2, hi3));
    const size_t n = std::min(rows - r0, kL2TileRows);
    if (n == kL2TileRows) {
      _mm256_storeu_pd(out + r0, lo);
      _mm256_storeu_pd(out + r0 + 4, hi);
    } else {
      alignas(32) double lanes[kL2TileRows];
      _mm256_store_pd(lanes, lo);
      _mm256_store_pd(lanes + 4, hi);
      std::memcpy(out + r0, lanes, n * sizeof(double));
    }
  }
}

}  // namespace

const KernelOps& Avx2KernelOps() {
  static const KernelOps ops = {
      "avx2",
      Avx2SquaredL2Pair,
      Avx2L2OneToMany,
      Avx2L2DotOneToMany,
      Avx2Ssd8OneToMany,
      Avx2Ssd4OneToMany,
      Avx2L2DotF32OneToMany,
      Avx2RowNormsF32,
      Avx2L2Gather,
      X86BiquadCascadeLanes,
      Avx2L2Tiles,
      X86WeightedRowSums<Ymm>,
  };
  return ops;
}

}  // namespace internal
}  // namespace mocemg

#endif  // x86
