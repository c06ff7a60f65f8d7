/// \file kernels_scalar.cc
/// \brief Portable reference backend. Compiled with the project's
/// default flags only (no target-specific options), so this TU *is*
/// the "current auto-vectorized build" that the SIMD backends are
/// benchmarked against and bit-compared to.

#include <algorithm>

#include "util/distance_kernels.h"
#include "util/kernels/kernel_backend.h"

namespace mocemg {
namespace internal {
namespace {

double ScalarSquaredL2Pair(const double* x, const double* y, size_t d) {
  return SquaredL2(x, y, d);
}

void ScalarL2OneToMany(const double* query, const double* block,
                       size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredL2(query, block + r * d, d);
  }
}

void ScalarL2DotOneToMany(const double* query, double query_sq,
                          const double* block, const double* norms_sq,
                          size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] =
        query_sq + norms_sq[r] - 2.0 * DotProduct(query, block + r * d, d);
  }
}

// float32 mirror family: the inline fp32 reference kernels applied per
// row. The dot-form combine is written once here — (query_sq +
// norms_sq[r]) − 2·dot, left to right — and every SIMD backend
// reproduces it literally.

void ScalarL2DotF32OneToMany(const float* query, float query_sq,
                             const float* block, const float* norms_sq,
                             size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0f * DotProductF32(query, block + r * d, d);
  }
}

void ScalarRowNormsF32(const float* block, size_t rows, size_t d,
                       float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredNormF32(block + r * d, d);
  }
}

void ScalarSsd8OneToMany(const uint8_t* qcodes, const uint8_t* codes,
                         size_t rows, size_t d, uint32_t* out) {
  // Exact int32 accumulation; the shape (byte loads widened to i16,
  // multiply-accumulated to i32) is what the vectorizer turns into
  // pmaddwd-class code even in this portable TU.
  for (size_t r = 0; r < rows; ++r) {
    const uint8_t* c = codes + r * d;
    uint32_t acc = 0;
    for (size_t j = 0; j < d; ++j) {
      const int32_t diff =
          static_cast<int32_t>(qcodes[j]) - static_cast<int32_t>(c[j]);
      acc += static_cast<uint32_t>(diff * diff);
    }
    out[r] = acc;
  }
}

void ScalarSsd4OneToMany(const uint8_t* qpacked, const uint8_t* packed,
                         size_t rows, size_t d, uint32_t* out) {
  // Nibble-packed codes: dim 2b in the low nibble of byte b, dim 2b+1
  // in the high nibble; when d is odd the final high nibble is 0 in
  // both the query and every row (quant_kernels.h PackNibbleRows), so
  // the uniform per-byte loop contributes 0 for the pad and the sum is
  // exact over the real dims.
  const size_t bytes = (d + 1) / 2;
  for (size_t r = 0; r < rows; ++r) {
    const uint8_t* c = packed + r * bytes;
    uint32_t acc = 0;
    for (size_t b = 0; b < bytes; ++b) {
      const int32_t dlo = static_cast<int32_t>(qpacked[b] & 0x0F) -
                          static_cast<int32_t>(c[b] & 0x0F);
      const int32_t dhi = static_cast<int32_t>(qpacked[b] >> 4) -
                          static_cast<int32_t>(c[b] >> 4);
      acc += static_cast<uint32_t>(dlo * dlo + dhi * dhi);
    }
    out[r] = acc;
  }
}

void ScalarL2Gather(const double* query, const double* block,
                    const uint32_t* row_indices, size_t n, size_t d,
                    double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SquaredL2(query, block + static_cast<size_t>(row_indices[i]) * d,
                       d);
  }
}

// Tiled exact scan (kernel_dispatch.h): a tile's 8 rows run side by
// side, each with its own four accumulators fed in the pair kernel's
// order (dim i into accumulator i mod 4, ascending i), so every row's
// result is SquaredL2's. The pad rows of a partial last tile are
// computed and dropped.
inline void AddTileSquares(double q, const double* col, double* acc) {
  for (size_t l = 0; l < kL2TileRows; ++l) {
    const double diff = q - col[l];
    acc[l] += diff * diff;
  }
}

void ScalarL2Tiles(const double* query, const double* tiles, size_t rows,
                   size_t d, double* out) {
  for (size_t r0 = 0; r0 < rows; r0 += kL2TileRows) {
    const double* tile = tiles + r0 * d;
    double a0[kL2TileRows] = {}, a1[kL2TileRows] = {};
    double a2[kL2TileRows] = {}, a3[kL2TileRows] = {};
    size_t i = 0;
    for (; i + 4 <= d; i += 4) {
      const double* col = tile + i * kL2TileRows;
      AddTileSquares(query[i], col, a0);
      AddTileSquares(query[i + 1], col + kL2TileRows, a1);
      AddTileSquares(query[i + 2], col + 2 * kL2TileRows, a2);
      AddTileSquares(query[i + 3], col + 3 * kL2TileRows, a3);
    }
    // Remainder dims land in accumulators 0..2, as in the pair kernel.
    const double* col = tile + i * kL2TileRows;
    if (i < d) AddTileSquares(query[i], col, a0);
    if (i + 1 < d) AddTileSquares(query[i + 1], col + kL2TileRows, a1);
    if (i + 2 < d) AddTileSquares(query[i + 2], col + 2 * kL2TileRows, a2);
    const size_t n = std::min(rows - r0, kL2TileRows);
    for (size_t l = 0; l < n; ++l) {
      out[r0 + l] = (a0[l] + a1[l]) + (a2[l] + a3[l]);
    }
  }
}

// FCM M-step sums (kernel_dispatch.h): point by point, every centre's
// weight goes into its total and, times the point, into its row.
void ScalarWeightedRowSums(const double* w, size_t c, const double* x,
                           size_t d, size_t rows, double* sums,
                           double* totals) {
  std::fill(sums, sums + c * d, 0.0);
  std::fill(totals, totals + c, 0.0);
  for (size_t k = 0; k < rows; ++k) {
    const double* wk = w + k * c;
    const double* xk = x + k * d;
    for (size_t i = 0; i < c; ++i) {
      const double wi = wk[i];
      totals[i] += wi;
      double* row = sums + i * d;
      for (size_t j = 0; j < d; ++j) row[j] += wi * xk[j];
    }
  }
}

// DF2T biquad cascade over interleaved lanes (kernel_dispatch.h). A
// cascade is a chain of causal filters, so running a group of sections
// over the whole signal and then the next group gives the same bits as
// running every section per frame; a group of up to kBiquadGroup
// sections keeps its coefficients and delay lines in registers. Lanes
// are independent and run one after another.

constexpr size_t kBiquadGroup = 4;

template <size_t NS>
void ScalarBiquadLane(const double* coeffs, double* state, double* data,
                      size_t frames, size_t lanes, size_t lane,
                      bool reverse) {
  double b0[NS], b1[NS], b2[NS], a1[NS], a2[NS], s1[NS], s2[NS];
  for (size_t k = 0; k < NS; ++k) {
    b0[k] = coeffs[5 * k];
    b1[k] = coeffs[5 * k + 1];
    b2[k] = coeffs[5 * k + 2];
    a1[k] = coeffs[5 * k + 3];
    a2[k] = coeffs[5 * k + 4];
    s1[k] = state[2 * k * lanes + lane];
    s2[k] = state[(2 * k + 1) * lanes + lane];
  }
  // Unsigned wrap-around makes `step` walk backwards in reverse.
  size_t i = (reverse ? (frames - 1) * lanes : 0) + lane;
  const size_t step = reverse ? size_t{0} - lanes : lanes;
  for (size_t f = 0; f < frames; ++f, i += step) {
    double x = data[i];
    for (size_t k = 0; k < NS; ++k) {
      const double y = b0[k] * x + s1[k];
      s1[k] = b1[k] * x - a1[k] * y + s2[k];
      s2[k] = b2[k] * x - a2[k] * y;
      x = y;
    }
    data[i] = x;
  }
  for (size_t k = 0; k < NS; ++k) {
    state[2 * k * lanes + lane] = s1[k];
    state[(2 * k + 1) * lanes + lane] = s2[k];
  }
}

void ScalarBiquadCascadeLanes(const double* coeffs, size_t sections,
                              double* state, double* data, size_t frames,
                              size_t lanes, bool reverse) {
  for (size_t s0 = 0; s0 < sections; s0 += kBiquadGroup) {
    const double* c = coeffs + 5 * s0;
    double* st = state + 2 * s0 * lanes;
    const size_t group = std::min(sections - s0, kBiquadGroup);
    for (size_t l = 0; l < lanes; ++l) {
      switch (group) {
        case 1:
          ScalarBiquadLane<1>(c, st, data, frames, lanes, l, reverse);
          break;
        case 2:
          ScalarBiquadLane<2>(c, st, data, frames, lanes, l, reverse);
          break;
        case 3:
          ScalarBiquadLane<3>(c, st, data, frames, lanes, l, reverse);
          break;
        default:
          ScalarBiquadLane<4>(c, st, data, frames, lanes, l, reverse);
          break;
      }
    }
  }
}

}  // namespace

const KernelOps& ScalarKernelOps() {
  static const KernelOps ops = {
      "scalar",
      ScalarSquaredL2Pair,
      ScalarL2OneToMany,
      ScalarL2DotOneToMany,
      ScalarSsd8OneToMany,
      ScalarSsd4OneToMany,
      ScalarL2DotF32OneToMany,
      ScalarRowNormsF32,
      ScalarL2Gather,
      ScalarBiquadCascadeLanes,
      ScalarL2Tiles,
      ScalarWeightedRowSums,
  };
  return ops;
}

}  // namespace internal
}  // namespace mocemg
