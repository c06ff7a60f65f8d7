#include "util/distance_kernels.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "util/kernel_dispatch.h"

namespace mocemg {
namespace {

// Row-tile size for the blocked many-to-many kernel: a tile of rows is
// kept hot across the whole query batch. 256 rows × 64 dims × 8 bytes
// = 128 KiB worst case at the dimensionalities this library sees —
// L2-resident everywhere; at the paper-typical 16–30 dims a tile fits
// comfortably in L1+L2. The tile size never changes per-pair bits
// (each pair's accumulation is self-contained), only cache behaviour.
constexpr size_t kRowTile = 256;

}  // namespace

// The row-shaped entry points route through the runtime-dispatched
// backend table (kernel_dispatch.h). Every backend is bit-identical to
// the scalar reference, so callers observe only a throughput change.

double SquaredL2Dispatched(const double* x, const double* y, size_t d) {
  return internal::ActiveKernelOps().squared_l2_pair(x, y, d);
}

void SquaredL2OneToMany(const double* query, const double* block,
                        size_t rows, size_t d, double* out) {
  internal::ActiveKernelOps().l2_one_to_many(query, block, rows, d, out);
}

void SquaredL2DotOneToMany(const double* query, double query_sq,
                           const double* block, const double* norms_sq,
                           size_t rows, size_t d, double* out) {
  internal::ActiveKernelOps().l2dot_one_to_many(query, query_sq, block,
                                                norms_sq, rows, d, out);
}

void SquaredL2ManyToMany(const double* queries, size_t num_queries,
                         const double* block, size_t rows, size_t d,
                         double* out, size_t out_stride) {
  const KernelOps& ops = internal::ActiveKernelOps();
  for (size_t r0 = 0; r0 < rows; r0 += kRowTile) {
    const size_t tile = std::min(rows - r0, kRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      ops.l2_one_to_many(queries + q * d, block + r0 * d, tile, d,
                         out + q * out_stride + r0);
    }
  }
}

void SquaredL2Gather(const double* query, const double* block,
                     const uint32_t* row_indices, size_t n, size_t d,
                     double* out) {
  internal::ActiveKernelOps().l2_gather(query, block, row_indices, n, d,
                                        out);
}

void PackL2Tiles(const double* block, size_t rows, size_t d,
                 double* tiles) {
  std::fill(tiles, tiles + L2TilesSize(rows, d), 0.0);
  for (size_t r = 0; r < rows; ++r) {
    double* lane = tiles + (r / kL2TileRows) * d * kL2TileRows +
                   r % kL2TileRows;
    const double* row = block + r * d;
    for (size_t i = 0; i < d; ++i) lane[i * kL2TileRows] = row[i];
  }
}

void SquaredL2Tiles(const double* query, const double* tiles, size_t rows,
                    size_t d, double* out) {
  internal::ActiveKernelOps().l2_tiles(query, tiles, rows, d, out);
}

void WeightedRowSums(const double* w, size_t c, const double* x, size_t d,
                     size_t rows, double* sums, double* totals) {
  internal::ActiveKernelOps().weighted_row_sums(w, c, x, d, rows, sums,
                                                totals);
}

void SquaredL2DotF32OneToMany(const float* query, float query_sq,
                              const float* block, const float* norms_sq,
                              size_t rows, size_t d, float* out) {
  internal::ActiveKernelOps().l2dot_f32_one_to_many(
      query, query_sq, block, norms_sq, rows, d, out);
}

void RowSquaredNormsF32(const float* block, size_t rows, size_t d,
                        float* out) {
  internal::ActiveKernelOps().row_norms_f32(block, rows, d, out);
}

double DotFormErrorBound(size_t d, double query_sq, double max_norm_sq) {
  // |fl(dot) − dot| <= γ_d·‖q‖‖r‖ <= γ_d·(q² + r²)/2 with γ_d ≈ d·u,
  // u = ε/2; the norm terms carry γ_d relative error and the final
  // three-term combination a few more ulps. 4·d·ε·(q² + r²) covers the
  // sum of all of it with a >2× margin (DESIGN.md §10.2).
  return 4.0 * static_cast<double>(d) * DBL_EPSILON *
         (query_sq + max_norm_sq);
}

double Float32DotFormErrorBound(size_t d, double query_sq,
                                double max_norm_sq, double max_abs) {
  // Error budget for reading a pair through the float32 mirror
  // (DESIGN.md §15.2). Write S = query_sq + max_norm_sq.
  //
  //  1. Storage rounding: each stored element is fl32(x), relative
  //     error ε32 = 2⁻²³ (or an absolute error <= λ = 2⁻¹⁴⁹ once the
  //     value denormalizes). Through the dot product this perturbs
  //     Σ|x_i·y_i| <= √(q²·r²) <= S/2 by <= 2ε32·S/2 + λ·d·(√S +
  //     max_abs + λ); the norms carry the same storage rounding once
  //     more.
  //  2. fp32 accumulation: the 4-lane dot and norm sums each lose
  //     <= ⌈d/4⌉·ε32 relative (γ-series), again against S/2, with the
  //     λ absolute floor when a partial sum denormalizes.
  //  3. The fp32 three-term combine (q² + r²) − 2·dot touches values
  //     <= 3S: a handful of ε32·S terms.
  //  4. The double dot-form residual DotFormErrorBound — the fp32 scan
  //     is certified against the *difference-form* double kernel.
  //
  // (4d + 32)·ε32·S dominates 1–3's relative parts with better than
  // 2× slack; the λ term covers every absolute (subnormal) leak. The
  // conservativeness property test drives this with mixed 1e±30 scales
  // and pure-subnormal inputs across dims 1..67.
  const double s = query_sq + max_norm_sq;
  const double eps32 = 1.1920928955078125e-07;   // FLT_EPSILON = 2^-23
  const double lambda = 1.401298464324817e-45;   // 2^-149, min subnormal
  const double dd = static_cast<double>(d);
  return (4.0 * dd + 32.0) * eps32 * s +
         8.0 * (dd + 4.0) * lambda *
             (std::sqrt(s) + max_abs + lambda) +
         DotFormErrorBound(d, query_sq, max_norm_sq);
}

}  // namespace mocemg
