/// \file distance_kernels.h
/// \brief Allocation-free squared-L2 / dot-product kernels shared by
/// every retrieval and clustering hot loop (kNN scans, k-means
/// assignment, the FCM/GK membership steps).
///
/// Four shapes:
///
///  - **pair**       — one (x, y) distance (`SquaredL2`, `DotProduct`),
///  - **one-to-many** — one query against a packed row-major block
///    (`SquaredL2OneToMany`, `SquaredL2DotOneToMany`),
///  - **tiled**      — one query against rows stored as 8-row tiles,
///    dimension-major within a tile, with the rows in SIMD lanes
///    (`SquaredL2Tiles`, layout by `PackL2Tiles`),
///  - **many-to-many** — a query batch against a block, tiled over the
///    block rows so a tile stays L1/L2-resident across the whole query
///    batch (`SquaredL2ManyToMany`).
///
/// Arithmetic contract (the determinism guarantee everything downstream
/// leans on): every kernel computes each (x, y) pair with **4
/// independent accumulators** over the dimensions — lane j sums the
/// dimensions i with i ≡ j (mod 4) of the unrolled body, the <= 3
/// remainder dimensions land in lanes 0..2 in order, and the lanes
/// combine as `(a0 + a1) + (a2 + a3)`. The combine order is fixed, so a
/// pair's result is bit-identical whether it was computed by the pair
/// kernel, inside a one-to-many row, or inside any tile of the blocked
/// kernel — and therefore identical at every thread count and tile
/// size. The row-shaped entry points below route through the
/// runtime-dispatched SIMD backends (kernel_dispatch.h), each of which
/// reproduces this 4-lane contract bit-for-bit; the inline kernels in
/// this header are the portable scalar *reference* the backends are
/// tested against (and what non-SIMD CPUs run).
///
/// The dot-product form `d²(q, r) = ‖q‖² + ‖r‖² − 2⟨q, r⟩` (fed by
/// per-row norms precomputed at index build) trades the subtraction out
/// of the inner loop but rounds differently from the difference form;
/// `SquaredL2DotOneToMany` is therefore *approximate*, within
/// `DotFormErrorBound` (DESIGN.md §10.2). The index's degraded-mode
/// coarse scan and the fp32 tier's bound use it; the exact f64 scan
/// reads rows as 8-row tiles through `SquaredL2Tiles` instead, which
/// keeps the difference form's bits (DESIGN.md §19).
///
/// Non-finite inputs propagate exactly as in a scalar loop: any NaN
/// coordinate (or an Inf − Inf difference) yields NaN, otherwise an Inf
/// coordinate yields +Inf.

#ifndef MOCEMG_UTIL_DISTANCE_KERNELS_H_
#define MOCEMG_UTIL_DISTANCE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/kernel_dispatch.h"

namespace mocemg {

/// \brief Squared Euclidean distance ‖x − y‖² over d dimensions.
inline double SquaredL2(const double* x, const double* y, size_t d) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  // Remainder dimensions fill lanes 0..2 in order (fixed, so the
  // combine below is a pure function of the inputs).
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
  return (a0 + a1) + (a2 + a3);
}

/// \brief Dot product ⟨x, y⟩ with the same 4-lane accumulation order.
inline double DotProduct(const double* x, const double* y, size_t d) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  if (i < d) a0 += x[i] * y[i];
  if (i + 1 < d) a1 += x[i + 1] * y[i + 1];
  if (i + 2 < d) a2 += x[i + 2] * y[i + 2];
  return (a0 + a1) + (a2 + a3);
}

/// \brief Squared L2 norm ‖x‖² = ⟨x, x⟩ (same bits as DotProduct(x, x)).
inline double SquaredNorm(const double* x, size_t d) {
  return DotProduct(x, x, d);
}

/// \brief fp32 dot product with the identical 4-lane accumulation
/// contract at float precision — the scalar reference for the float32
/// SoA mirror kernels (the certified low-precision exact tier).
inline float DotProductF32(const float* x, const float* y, size_t d) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  if (i < d) a0 += x[i] * y[i];
  if (i + 1 < d) a1 += x[i + 1] * y[i + 1];
  if (i + 2 < d) a2 += x[i + 2] * y[i + 2];
  return (a0 + a1) + (a2 + a3);
}

/// \brief fp32 squared norm (same bits as DotProductF32(x, x)).
inline float SquaredNormF32(const float* x, size_t d) {
  return DotProductF32(x, x, d);
}

/// \brief Pair kernel routed through the runtime-dispatched SIMD
/// backend (kernel_dispatch.h). Bit-identical to the inline reference
/// above on every backend; use it in hot per-pair loops (re-rank,
/// residual measurement) where d is large enough to amortize the
/// indirect call, and the inline form everywhere else.
double SquaredL2Dispatched(const double* x, const double* y, size_t d);

/// \brief out[r] = ‖query − block_row_r‖² for each of the `rows` packed
/// row-major rows (row stride = d). Each out[r] is bit-identical to
/// `SquaredL2(query, block + r*d, d)`.
void SquaredL2OneToMany(const double* query, const double* block,
                        size_t rows, size_t d, double* out);

/// \brief Dot-product-form scan: out[r] = query_sq + norms_sq[r] −
/// 2⟨query, block_row_r⟩, with `query_sq = SquaredNorm(query, d)` and
/// `norms_sq[r] = SquaredNorm(block + r*d, d)` precomputed by the
/// caller. Cheaper than the difference form (no per-dimension subtract)
/// but **approximate**: it differs from `SquaredL2` by at most
/// `DotFormErrorBound(d, query_sq, max_r norms_sq[r])`. Negative
/// results (possible for near-coincident points) are NOT clamped.
void SquaredL2DotOneToMany(const double* query, double query_sq,
                           const double* block, const double* norms_sq,
                           size_t rows, size_t d, double* out);

/// \brief Blocked many-to-many: out[q * out_stride + r] =
/// ‖query_q − block_row_r‖² for q < num_queries, r < rows. The block is
/// processed in row tiles sized for L1/L2 so each tile is streamed once
/// per query batch, not once per query. Per-pair bits equal the pair
/// kernel regardless of the tiling. `queries` is packed row-major with
/// stride d; `out_stride >= rows`.
void SquaredL2ManyToMany(const double* queries, size_t num_queries,
                         const double* block, size_t rows, size_t d,
                         double* out, size_t out_stride);

/// \brief out[i] = SquaredL2(query, block + row_indices[i]*d, d) for a
/// gathered index list — the blocked refine kernel the fp32 tier uses
/// to re-evaluate its unseparable rows in double. Bit-identical per
/// index to the exact pair kernel.
void SquaredL2Gather(const double* query, const double* block,
                     const uint32_t* row_indices, size_t n, size_t d,
                     double* out);

/// \brief Doubles in the tiled copy of `rows` rows of dimension d: the
/// rows rounded up to whole tiles of kL2TileRows (kernel_dispatch.h),
/// times d.
inline size_t L2TilesSize(size_t rows, size_t d) {
  return (rows + kL2TileRows - 1) / kL2TileRows * kL2TileRows * d;
}

/// \brief Copies `rows` packed row-major rows into 8-row tiles,
/// dimension-major within a tile: element (row r, dim i) lands at
/// `tiles[((r / 8) * d + i) * 8 + r % 8]`. The pad rows of a partial
/// last tile are zero. `tiles` holds L2TilesSize(rows, d) doubles.
void PackL2Tiles(const double* block, size_t rows, size_t d,
                 double* tiles);

/// \brief Exact tiled scan: out[r] = ‖query − row r‖² for the `rows`
/// rows of a PackL2Tiles copy, each bit-identical to `SquaredL2(query,
/// row r, d)`. The backends put a tile's 8 rows in SIMD lanes, and every
/// lane keeps the pair kernel's four accumulators and combine, so no
/// row pays a horizontal reduction or a scalar tail. Writes out[0, rows)
/// only.
void SquaredL2Tiles(const double* query, const double* tiles, size_t rows,
                    size_t d, double* out);

/// \brief FCM's M-step sums over `rows` points: sums[i·d + j] =
/// Σ_k w[k·c + i] · x[k·d + j] and totals[i] = Σ_k w[k·c + i], with
/// `w` (rows × c) and `x` (rows × d) row-major. Each sum starts from
/// +0.0 and adds its terms in increasing k, so the result has the bits
/// of that plain loop on every backend (KernelOps::weighted_row_sums).
/// Overwrites sums[0, c·d) and totals[0, c); d >= 1.
void WeightedRowSums(const double* w, size_t c, const double* x, size_t d,
                     size_t rows, double* sums, double* totals);

/// \brief Conservative bound on |dot-form − difference-form| for one
/// pair: 4·d·ε·(query_sq + max_norm_sq), with ε = 2⁻⁵² (see DESIGN.md
/// §10.2). Valid for any row whose squared norm is <= max_norm_sq.
double DotFormErrorBound(size_t d, double query_sq, double max_norm_sq);

/// \brief fp32 mirror dot-form scan, routed through the dispatched
/// backend like its double counterpart:
/// out[r] = (query_sq + norms_sq[r]) − 2·⟨query, row⟩ at fp32
/// throughout, bit-identical on every backend.
void SquaredL2DotF32OneToMany(const float* query, float query_sq,
                              const float* block, const float* norms_sq,
                              size_t rows, size_t d, float* out);

/// \brief out[r] = SquaredNormF32 of row r (fp32 accumulation).
void RowSquaredNormsF32(const float* block, size_t rows, size_t d,
                        float* out);

/// \brief Conservative bound on |fp32 dot-form scan − fp64
/// difference-form| for one pair scanned through the float32 mirror:
/// covers the f64→f32 storage rounding of both operands and the norms,
/// the fp32 4-lane dot accumulation, the fp32 three-term combination,
/// and the residual double dot-form error. `max_norm_sq` bounds every
/// mirrored row's squared norm and `max_abs` every mirrored element's
/// magnitude (both collected at pack time); the subnormal absolute
/// floor makes the bound valid even when elements or partial sums
/// denormalize. Callers must also ensure `query_sq + max_norm_sq`
/// stays far below FLT_MAX (the index gates the fp32 tier per
/// partition at 1e30) so no fp32 intermediate overflows.
double Float32DotFormErrorBound(size_t d, double query_sq,
                                double max_norm_sq, double max_abs);

}  // namespace mocemg

#endif  // MOCEMG_UTIL_DISTANCE_KERNELS_H_
