#include "util/quant_kernels.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "util/kernel_dispatch.h"

namespace mocemg {

void ComputeQuantGrid(const double* block, size_t rows, size_t d,
                      double* offsets, double* scale, uint32_t levels) {
  double max_range = 0.0;
  for (size_t j = 0; j < d; ++j) offsets[j] = block[j];
  // First pass: column minima.
  for (size_t r = 1; r < rows; ++r) {
    const double* row = block + r * d;
    for (size_t j = 0; j < d; ++j) {
      offsets[j] = std::min(offsets[j], row[j]);
    }
  }
  // Second pass: the widest column range sets the uniform step.
  for (size_t r = 0; r < rows; ++r) {
    const double* row = block + r * d;
    for (size_t j = 0; j < d; ++j) {
      max_range = std::max(max_range, row[j] - offsets[j]);
    }
  }
  *scale = max_range / static_cast<double>(levels);
}

namespace {

inline uint8_t EncodeValue(double value, double offset, double scale,
                           double levels) {
  if (scale <= 0.0) return 0;
  const double t = std::nearbyint((value - offset) / scale);
  return static_cast<uint8_t>(std::clamp(t, 0.0, levels));
}

}  // namespace

void QuantizeRows(const double* block, size_t rows, size_t d,
                  const double* offsets, double scale, uint8_t* codes,
                  uint32_t levels) {
  const double lmax = static_cast<double>(levels);
  for (size_t r = 0; r < rows; ++r) {
    const double* row = block + r * d;
    uint8_t* out = codes + r * d;
    for (size_t j = 0; j < d; ++j) {
      out[j] = EncodeValue(row[j], offsets[j], scale, lmax);
    }
  }
}

void QuantizeQuery(const double* query, size_t d, const double* offsets,
                   double scale, uint8_t* qcodes, uint32_t levels) {
  const double lmax = static_cast<double>(levels);
  for (size_t j = 0; j < d; ++j) {
    qcodes[j] = EncodeValue(query[j], offsets[j], scale, lmax);
  }
}

void DequantizeRow(const uint8_t* codes, size_t d, const double* offsets,
                   double scale, double* out) {
  for (size_t j = 0; j < d; ++j) {
    out[j] = offsets[j] + scale * static_cast<double>(codes[j]);
  }
}

void PackNibbleRows(const uint8_t* codes, size_t rows, size_t d,
                    uint8_t* packed) {
  const size_t stride = PackedNibbleStride(d);
  for (size_t r = 0; r < rows; ++r) {
    const uint8_t* in = codes + r * d;
    uint8_t* out = packed + r * stride;
    for (size_t b = 0; b < stride; ++b) {
      const uint8_t lo = static_cast<uint8_t>(in[2 * b] & 0x0F);
      const uint8_t hi = (2 * b + 1 < d)
                             ? static_cast<uint8_t>(in[2 * b + 1] & 0x0F)
                             : uint8_t{0};
      out[b] = static_cast<uint8_t>(lo | (hi << 4));
    }
  }
}

void UnpackNibbleRow(const uint8_t* packed, size_t d, uint8_t* codes) {
  for (size_t j = 0; j < d; ++j) {
    const uint8_t byte = packed[j / 2];
    codes[j] = (j % 2 == 0) ? static_cast<uint8_t>(byte & 0x0F)
                            : static_cast<uint8_t>(byte >> 4);
  }
}

void QuantizedSsdOneToMany(const uint8_t* qcodes, const uint8_t* codes,
                           size_t rows, size_t d, uint32_t* out) {
  internal::ActiveKernelOps().ssd8_one_to_many(qcodes, codes, rows, d, out);
}

void Quantized4SsdOneToMany(const uint8_t* qpacked, const uint8_t* packed,
                            size_t rows, size_t d, uint32_t* out) {
  internal::ActiveKernelOps().ssd4_one_to_many(qpacked, packed, rows, d,
                                               out);
}

double QuantScanSlack(size_t d, double a_sq, double b_sq) {
  // Error budget, all terms absolute (magnitudes bounded by
  // a_sq + b_sq =: M, with the caller passing bounds that cover the
  // grid's bounding box as well as the raw rows):
  //   - exact kernel accumulation on the re-rank side:          <= 4dεM
  //   - build-time error measurement accumulation:              <= 4dεM
  //   - query-residual measurement accumulation:                <= 4dεM
  //   - decode roundings (fl(off + s·c)) folded into the above: <= 8dεM
  // 32dεM covers the sum with margin; see DESIGN.md §11.2.
  return 32.0 * static_cast<double>(d) * DBL_EPSILON * (a_sq + b_sq);
}

}  // namespace mocemg
