/// \file kernels_neon.cc
/// \brief aarch64 Advanced SIMD backend. NEON is baseline on aarch64 so
/// this TU needs no extra target flags (beyond -ffp-contract=off); the
/// int8 kernel upgrades to the udot (dot-product) instruction when the
/// compiler baseline carries __ARM_FEATURE_DOTPROD.
///
/// Bit-exactness (kernel_dispatch.h): the double kernels keep the
/// 4-lane contract as a *pair* of 2-wide accumulators — acc01 holds the
/// scalar reference's lanes a0/a1 and acc23 holds a2/a3, each updated
/// with a separate multiply then add (never vfma), remainder dims
/// handled on the extracted lanes with the scalar code, lanes combined
/// as (a0 + a1) + (a2 + a3). The integer kernels are exact: |q − c| via
/// vabd, squared through the widening multiply (vmull_u8 →
/// pairwise-accumulate) or udot, all in uint32 arithmetic.

#if defined(__aarch64__)

#include <arm_neon.h>

#include "util/kernels/kernel_backend.h"

namespace mocemg {
namespace internal {
namespace {

// ---------------------------------------------------------------------
// double kernels: lanes a0/a1 in acc01, a2/a3 in acc23.

inline double CombineTail(float64x2_t acc01, float64x2_t acc23,
                          const double* x, const double* y, size_t i,
                          size_t d, bool squared) {
  double a0 = vgetq_lane_f64(acc01, 0);
  double a1 = vgetq_lane_f64(acc01, 1);
  double a2 = vgetq_lane_f64(acc23, 0);
  double a3 = vgetq_lane_f64(acc23, 1);
  if (squared) {
    if (i < d) {
      const double d0 = x[i] - y[i];
      a0 += d0 * d0;
    }
    if (i + 1 < d) {
      const double d1 = x[i + 1] - y[i + 1];
      a1 += d1 * d1;
    }
    if (i + 2 < d) {
      const double d2 = x[i + 2] - y[i + 2];
      a2 += d2 * d2;
    }
  } else {
    if (i < d) a0 += x[i] * y[i];
    if (i + 1 < d) a1 += x[i + 1] * y[i + 1];
    if (i + 2 < d) a2 += x[i + 2] * y[i + 2];
  }
  return (a0 + a1) + (a2 + a3);
}

double NeonSquaredL2Pair(const double* x, const double* y, size_t d) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float64x2_t d01 = vsubq_f64(vld1q_f64(x + i), vld1q_f64(y + i));
    const float64x2_t d23 =
        vsubq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
    acc01 = vaddq_f64(acc01, vmulq_f64(d01, d01));
    acc23 = vaddq_f64(acc23, vmulq_f64(d23, d23));
  }
  return CombineTail(acc01, acc23, x, y, i, d, /*squared=*/true);
}

double NeonDotPair(const double* x, const double* y, size_t d) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    acc23 = vaddq_f64(
        acc23, vmulq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  return CombineTail(acc01, acc23, x, y, i, d, /*squared=*/false);
}

void NeonL2OneToMany(const double* query, const double* block, size_t rows,
                     size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = NeonSquaredL2Pair(query, block + r * d, d);
  }
}

void NeonL2DotOneToMany(const double* query, double query_sq,
                        const double* block, const double* norms_sq,
                        size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] =
        query_sq + norms_sq[r] - 2.0 * NeonDotPair(query, block + r * d, d);
  }
}

// ---------------------------------------------------------------------
// float32 mirror kernels: one float32x4_t accumulator IS the scalar
// reference's four lanes; multiply then add (never vfma), remainder
// dims on the extracted lanes.

inline float CombineTailF32(float32x4_t acc, const float* x,
                            const float* y, size_t i, size_t d) {
  float a0 = vgetq_lane_f32(acc, 0);
  float a1 = vgetq_lane_f32(acc, 1);
  float a2 = vgetq_lane_f32(acc, 2);
  float a3 = vgetq_lane_f32(acc, 3);
  if (i < d) a0 += x[i] * y[i];
  if (i + 1 < d) a1 += x[i + 1] * y[i + 1];
  if (i + 2 < d) a2 += x[i + 2] * y[i + 2];
  return (a0 + a1) + (a2 + a3);
}

inline float NeonDotPairF32(const float* x, const float* y, size_t d) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc = vaddq_f32(acc, vmulq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  }
  return CombineTailF32(acc, x, y, i, d);
}

void NeonL2DotF32OneToMany(const float* query, float query_sq,
                           const float* block, const float* norms_sq,
                           size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0f * NeonDotPairF32(query, block + r * d, d);
  }
}

void NeonRowNormsF32(const float* block, size_t rows, size_t d,
                     float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = block + r * d;
    out[r] = NeonDotPairF32(row, row, d);
  }
}

// ---------------------------------------------------------------------
// integer coarse kernels.

inline uint32x4_t AddSquares(uint32x4_t acc, uint8x16_t ad) {
#if defined(__ARM_FEATURE_DOTPROD)
  return vdotq_u32(acc, ad, ad);
#else
  const uint16x8_t lo = vmull_u8(vget_low_u8(ad), vget_low_u8(ad));
  const uint16x8_t hi = vmull_u8(vget_high_u8(ad), vget_high_u8(ad));
  return vpadalq_u16(vpadalq_u16(acc, lo), hi);
#endif
}

inline uint32_t Ssd8Row(const uint8_t* q, const uint8_t* c, size_t d) {
  uint32x4_t acc = vdupq_n_u32(0);
  size_t j = 0;
  for (; j + 16 <= d; j += 16) {
    const uint8x16_t ad = vabdq_u8(vld1q_u8(q + j), vld1q_u8(c + j));
    acc = AddSquares(acc, ad);
  }
  uint32_t sum = vaddvq_u32(acc);
  for (; j < d; ++j) {
    const int32_t diff =
        static_cast<int32_t>(q[j]) - static_cast<int32_t>(c[j]);
    sum += static_cast<uint32_t>(diff * diff);
  }
  return sum;
}

void NeonSsd8OneToMany(const uint8_t* qcodes, const uint8_t* codes,
                       size_t rows, size_t d, uint32_t* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Ssd8Row(qcodes, codes + r * d, d);
  }
}

inline uint32_t Ssd4Row(const uint8_t* q, const uint8_t* c, size_t bytes) {
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  uint32x4_t acc = vdupq_n_u32(0);
  size_t b = 0;
  for (; b + 16 <= bytes; b += 16) {
    const uint8x16_t vq = vld1q_u8(q + b);
    const uint8x16_t vc = vld1q_u8(c + b);
    const uint8x16_t adlo =
        vabdq_u8(vandq_u8(vq, mask), vandq_u8(vc, mask));
    const uint8x16_t adhi =
        vabdq_u8(vshrq_n_u8(vq, 4), vshrq_n_u8(vc, 4));
    acc = AddSquares(acc, adlo);
    acc = AddSquares(acc, adhi);
  }
  uint32_t sum = vaddvq_u32(acc);
  for (; b < bytes; ++b) {
    const int32_t dlo = static_cast<int32_t>(q[b] & 0x0F) -
                        static_cast<int32_t>(c[b] & 0x0F);
    const int32_t dhi =
        static_cast<int32_t>(q[b] >> 4) - static_cast<int32_t>(c[b] >> 4);
    sum += static_cast<uint32_t>(dlo * dlo + dhi * dhi);
  }
  return sum;
}

void NeonSsd4OneToMany(const uint8_t* qpacked, const uint8_t* packed,
                       size_t rows, size_t d, uint32_t* out) {
  const size_t bytes = (d + 1) / 2;
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Ssd4Row(qpacked, packed + r * bytes, bytes);
  }
}

// ---------------------------------------------------------------------
// gather refine: 4 independent rows in flight per step (8 accumulator
// registers), sharing one query load, to hide the vector-add latency
// the one-to-many kernels serialize on. Each row keeps the exact
// acc01/acc23 op sequence of the pair kernels, so every row is
// bit-identical to squared_l2_pair.

inline void NeonSquaredL24Rows(const double* x, const double* y0,
                               const double* y1, const double* y2,
                               const double* y3, size_t d, double* out) {
  float64x2_t a0_01 = vdupq_n_f64(0.0), a0_23 = vdupq_n_f64(0.0);
  float64x2_t a1_01 = vdupq_n_f64(0.0), a1_23 = vdupq_n_f64(0.0);
  float64x2_t a2_01 = vdupq_n_f64(0.0), a2_23 = vdupq_n_f64(0.0);
  float64x2_t a3_01 = vdupq_n_f64(0.0), a3_23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float64x2_t x01 = vld1q_f64(x + i);
    const float64x2_t x23 = vld1q_f64(x + i + 2);
    const float64x2_t d0_01 = vsubq_f64(x01, vld1q_f64(y0 + i));
    const float64x2_t d0_23 = vsubq_f64(x23, vld1q_f64(y0 + i + 2));
    const float64x2_t d1_01 = vsubq_f64(x01, vld1q_f64(y1 + i));
    const float64x2_t d1_23 = vsubq_f64(x23, vld1q_f64(y1 + i + 2));
    const float64x2_t d2_01 = vsubq_f64(x01, vld1q_f64(y2 + i));
    const float64x2_t d2_23 = vsubq_f64(x23, vld1q_f64(y2 + i + 2));
    const float64x2_t d3_01 = vsubq_f64(x01, vld1q_f64(y3 + i));
    const float64x2_t d3_23 = vsubq_f64(x23, vld1q_f64(y3 + i + 2));
    a0_01 = vaddq_f64(a0_01, vmulq_f64(d0_01, d0_01));
    a0_23 = vaddq_f64(a0_23, vmulq_f64(d0_23, d0_23));
    a1_01 = vaddq_f64(a1_01, vmulq_f64(d1_01, d1_01));
    a1_23 = vaddq_f64(a1_23, vmulq_f64(d1_23, d1_23));
    a2_01 = vaddq_f64(a2_01, vmulq_f64(d2_01, d2_01));
    a2_23 = vaddq_f64(a2_23, vmulq_f64(d2_23, d2_23));
    a3_01 = vaddq_f64(a3_01, vmulq_f64(d3_01, d3_01));
    a3_23 = vaddq_f64(a3_23, vmulq_f64(d3_23, d3_23));
  }
  out[0] = CombineTail(a0_01, a0_23, x, y0, i, d, /*squared=*/true);
  out[1] = CombineTail(a1_01, a1_23, x, y1, i, d, /*squared=*/true);
  out[2] = CombineTail(a2_01, a2_23, x, y2, i, d, /*squared=*/true);
  out[3] = CombineTail(a3_01, a3_23, x, y3, i, d, /*squared=*/true);
}

void NeonL2Gather(const double* query, const double* block,
                  const uint32_t* row_indices, size_t n, size_t d,
                  double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    NeonSquaredL24Rows(query,
                       block + static_cast<size_t>(row_indices[i]) * d,
                       block + static_cast<size_t>(row_indices[i + 1]) * d,
                       block + static_cast<size_t>(row_indices[i + 2]) * d,
                       block + static_cast<size_t>(row_indices[i + 3]) * d,
                       d, out + i);
  }
  for (; i < n; ++i) {
    out[i] = NeonSquaredL2Pair(
        query, block + static_cast<size_t>(row_indices[i]) * d, d);
  }
}

}  // namespace

const KernelOps& NeonKernelOps() {
  static const KernelOps ops = {
      "neon",
      NeonSquaredL2Pair,
      NeonL2OneToMany,
      NeonL2DotOneToMany,
      NeonSsd8OneToMany,
      NeonSsd4OneToMany,
      NeonL2DotF32OneToMany,
      NeonRowNormsF32,
      NeonL2Gather,
      // No NEON lane kernel yet: the scalar reference (bit-identical by
      // definition) answers for it.
      ScalarKernelOps().biquad_cascade_lanes,
      // Nor a NEON tiled scan or M-step: the scalar entries answer for
      // them too.
      ScalarKernelOps().l2_tiles,
      ScalarKernelOps().weighted_row_sums,
  };
  return ops;
}

}  // namespace internal
}  // namespace mocemg

#endif  // __aarch64__
