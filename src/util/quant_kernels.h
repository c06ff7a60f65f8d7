/// \file quant_kernels.h
/// \brief Scalar-grid integer quantization kernels for the coarse-scan
/// index tier: per-dimension affine codes over a packed row-major
/// block, exact *integer* coarse distance scans (8-bit and 4-bit
/// nibble-packed codes), and the conservative error slack that makes
/// coarse pruning *provable* (no true neighbor is ever discarded —
/// survivors are re-ranked with the exact kernels).
///
/// Grid: dimension j of a block is coded on the affine grid
/// `value ≈ offset[j] + scale · code`, code ∈ {0..levels}, with
/// `offset[j] = min_r block[r][j]` per dimension and a single
/// per-partition `scale = max_j (max_r − min_r) / levels` (0 when every
/// column is constant, in which case every code is 0 and the decode is
/// exact). `levels` is 255 for the 8-bit tier and 15 for the 4-bit
/// tier; everything else — the integer scan identity
/// `‖q̃ − r̃‖² = scale² · Σ_j (qcode_j − code_j)²`, the measured
/// reconstruction errors, the pruning math — is width-independent, the
/// 4-bit tier just trades a 17× coarser grid (weaker pruning on spread
/// partitions) for half the coarse memory traffic.
///
/// 4-bit codes are nibble-packed two dims per byte: dim 2b in the low
/// nibble of byte b, dim 2b+1 in the high nibble, row stride
/// `PackedNibbleStride(d) = ⌈d/2⌉`. When d is odd the final high
/// nibble is 0 on both the query and every row, so the packed scan's
/// uniform per-byte loop adds exactly 0 for the pad.
///
/// The coarse scans read 1 byte (or half a byte) per dimension instead
/// of 8 and prune via the two-hop triangle inequality
/// `‖q − r‖ ≥ scale·√D − ‖q − q̃‖ − ‖r − r̃‖`, with the few
/// floating-point *scalars* (the query residual, the stored error, the
/// current k-th best) inflated by QuantScanSlack so every rounding
/// difference between the coarse and exact paths is absorbed
/// (derivation in DESIGN.md §11.2); the survivors' reported distances
/// always come from the exact kernels. The integer scans route through
/// the runtime-dispatched SIMD backends (kernel_dispatch.h) and are
/// exact int32 arithmetic on every backend.

#ifndef MOCEMG_UTIL_QUANT_KERNELS_H_
#define MOCEMG_UTIL_QUANT_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace mocemg {

/// \brief Row stride, in bytes, of a nibble-packed rows × d code block.
inline size_t PackedNibbleStride(size_t d) { return (d + 1) / 2; }

/// \brief Fills offsets[j] with the per-dimension column minima and
/// *scale with the uniform grid step (widest column range / levels) of
/// a rows × d packed block. Requires rows >= 1; an all-constant block
/// gets scale 0. `levels` is the top code (255 or 15).
void ComputeQuantGrid(const double* block, size_t rows, size_t d,
                      double* offsets, double* scale,
                      uint32_t levels = 255);

/// \brief Encodes every row of the block on the grid:
/// codes[r*d + j] = round((block[r][j] − offsets[j]) / scale),
/// clamped to [0, levels] (0 when scale == 0). Codes are unpacked — one
/// byte per dim — at every width; pack with PackNibbleRows for 4-bit.
void QuantizeRows(const double* block, size_t rows, size_t d,
                  const double* offsets, double scale, uint8_t* codes,
                  uint32_t levels = 255);

/// \brief Encodes one query vector on a partition's grid, clamped to
/// [0, levels] — unlike block rows the query may fall far outside the
/// partition's bounding box, and the clamp keeps q̃ inside it (the
/// resulting extra ‖q − q̃‖ residual weakens pruning, never
/// correctness).
void QuantizeQuery(const double* query, size_t d, const double* offsets,
                   double scale, uint8_t* qcodes, uint32_t levels = 255);

/// \brief Decodes one *unpacked* coded row: out[j] = offsets[j] +
/// scale · codes[j]. Used at build time to *measure* each row's actual
/// reconstruction error with the exact pair kernel, and at query time
/// to measure the query's own residual ‖q − q̃‖².
void DequantizeRow(const uint8_t* codes, size_t d, const double* offsets,
                   double scale, double* out);

/// \brief Packs rows of unpacked codes (values <= 15) into nibbles,
/// two dims per byte (dim 2b low, dim 2b+1 high, odd-d pad nibble 0).
/// `packed` holds rows × PackedNibbleStride(d) bytes.
void PackNibbleRows(const uint8_t* codes, size_t rows, size_t d,
                    uint8_t* packed);

/// \brief Unpacks one nibble-packed row back to one byte per dim.
void UnpackNibbleRow(const uint8_t* packed, size_t d, uint8_t* codes);

/// \brief 8-bit coarse scan: out[r] = Σ_j (qcodes[j] − codes[r*d+j])²
/// in exact int32 arithmetic. scale² · out[r] equals ‖q̃ − r̃‖² exactly
/// in real arithmetic, so the only rounding in the coarse bound lives
/// in per-partition scalars, not in the per-row loop. Requires
/// d · 255² < 2³² (d ≤ 66049; the index build gates far below that).
void QuantizedSsdOneToMany(const uint8_t* qcodes, const uint8_t* codes,
                           size_t rows, size_t d, uint32_t* out);

/// \brief 4-bit coarse scan over nibble-packed codes (row stride
/// PackedNibbleStride(d)); the query must be packed the same way.
/// Same exactness as the 8-bit scan with max per-dim diff² = 225.
void Quantized4SsdOneToMany(const uint8_t* qpacked, const uint8_t* packed,
                            size_t rows, size_t d, uint32_t* out);

/// \brief Absolute slack covering the floating-point error of any
/// exact-kernel squared-distance evaluation between vectors drawn from
/// (query, block rows, grid reconstructions):
/// 32 · d · ε · (a_sq + b_sq), ε = 2⁻⁵². Callers pass the two largest
/// squared magnitudes involved (e.g. ‖q‖² and the partition's
/// max-norm/bounding-box bound). The 32 (vs the exact kernels' proven
/// 4) budgets the decode roundings and the grid box exceeding the data
/// box on narrow columns; DESIGN.md §11.2 gives the accounting. The
/// bound is width-independent (it covers the float side, not the
/// integer side, which is exact at both widths).
double QuantScanSlack(size_t d, double a_sq, double b_sq);

}  // namespace mocemg

#endif  // MOCEMG_UTIL_QUANT_KERNELS_H_
