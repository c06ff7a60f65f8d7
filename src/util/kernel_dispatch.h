/// \file kernel_dispatch.h
/// \brief Runtime selection of SIMD backends for the distance / coarse
/// quantized kernel family and the EMG conditioning filter kernel.
///
/// The library ships several implementations of the hot kernels —
/// portable scalar (the bit-exactness reference, see
/// distance_kernels.h), AVX2, AVX-512 and NEON — each compiled in its
/// own translation unit with target-specific flags, so one binary
/// carries all of them without `-march=native`. At first use the
/// dispatcher probes the CPU once, picks the widest usable backend, and
/// publishes a function-pointer table (`KernelOps`) that every kernel
/// entry point (`SquaredL2OneToMany`, `QuantizedSsdOneToMany`, …) routes
/// through. Consumers — MotionDatabase linear scan, FeatureIndex
/// partition scan and coarse pass, k-means, FCM, GK, classifier kNN —
/// therefore pick up the dispatched backend with no call-site changes.
///
/// **Bit-exactness contract.** Every backend reproduces the scalar
/// reference bit-for-bit, for every shape, dimension and input
/// (including NaN/Inf propagation): the double kernels implement the
/// exact 4-lane accumulation order of distance_kernels.h (one 4-wide
/// vector accumulator, multiply then add — never FMA — with scalar
/// remainder handling in the same lanes), the float32 mirror kernels
/// implement the identical 4-lane order at fp32 precision, and the
/// integer coarse kernels are exact by construction (int32 sums of
/// squared byte diffs are associative), the tiled exact scan keeps the
/// 4-lane order per row with rows in SIMD lanes, the biquad lane
/// kernel runs each lane's recurrence with the scalar loop's own
/// operations, and the FCM M-step sums keep each (centre, dim) sum's
/// point order with dims in lanes. Switching backends can never change
/// a kNN result, a pruning decision, a clustering iterate or a
/// conditioned EMG sample — only the wall-clock. The contract is
/// enforced by tests/util/kernel_dispatch_test.cc across dims 1–67
/// (rows 0–37 for the tiled scan; lanes 1–9 and frames 0–300 for the
/// biquad kernel; centres 1–40 and points 0–70 for the M-step sums) for
/// every backend the binary carries. The backend TUs compile with
/// -ffp-contract=off, and so does the whole project, so the scalar
/// reference cannot be contracted to FMA on a target that has it.
///
/// **Override.** `MOCEMG_KERNEL={auto,scalar,avx2,avx512,neon}` (env,
/// read once at first dispatch) or SetKernelBackend() (CLI / tests)
/// force a specific backend; forcing one the CPU or build cannot run
/// fails cleanly (env: warning + auto, API: error Status).

#ifndef MOCEMG_UTIL_KERNEL_DISPATCH_H_
#define MOCEMG_UTIL_KERNEL_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace mocemg {

/// \brief One kernel implementation family, compiled per-TU.
enum class KernelBackend : int {
  kAuto = 0,    ///< pick the widest usable backend (default)
  kScalar = 1,  ///< portable reference (always compiled, always usable)
  kAvx2 = 2,    ///< x86-64 AVX2
  kAvx512 = 3,  ///< x86-64 AVX-512 (F+BW+DQ+VL, VNNI when available)
  kNeon = 4,    ///< aarch64 Advanced SIMD (+dotprod when available)
};

/// \brief Rows per tile of the layout `KernelOps::l2_tiles` reads.
constexpr size_t kL2TileRows = 8;

/// \brief Function-pointer table one backend fills in. All entries are
/// non-null and honour the contracts of distance_kernels.h /
/// quant_kernels.h; `ssd4_one_to_many` scans 4-bit nibble-packed codes
/// (row stride ⌈d/2⌉ bytes, dim 2j in the low nibble — see
/// quant_kernels.h). The fp32 entries (`l2dot_f32_one_to_many`,
/// `row_norms_f32`) scan the float32 SoA mirror of the exact tier: fp32
/// accumulation with the same literal 4-lane order (bit-exact across
/// backends like the double family).
///
/// `l2_gather` evaluates `squared_l2_pair` at a gathered index list;
/// it serves only the fp32 tier's f64 refine. Implementations may
/// interleave several independent rows to break the per-row
/// accumulator latency chain, but every row keeps its own
/// self-contained 4-lane accumulator, so out[i] has the bits of
/// `squared_l2_pair` on row `row_indices[i]`.
///
/// `l2_tiles` is the exact scan of the f64 tier. It reads a partition
/// stored as 8-row tiles, dimension-major within a tile (element (row
/// r, dim i) at `tiles[((r / 8) * d + i) * 8 + r % 8]`, pad rows zero;
/// see PackL2Tiles), and writes `out[r]` for r < rows. The rows of a
/// tile sit in SIMD lanes. Lane r adds dim i into accumulator i mod 4
/// in increasing i, as a separate multiply and add (never FMA), and
/// returns `(a0 + a1) + (a2 + a3)`, so `out[r]` has the bits of
/// `squared_l2_pair(query, row r, d)` (NaN payloads aside: which NaN
/// operand an add passes on is not part of the contract).
///
/// `biquad_cascade_lanes` runs a Direct-Form-II-transposed biquad
/// cascade in place over `lanes` interleaved independent signals: frame
/// f of lane l is `data[f * lanes + l]`, and `reverse` runs the frames
/// last to first. `coeffs` holds five doubles per section (b0, b1, b2,
/// a1, a2). `state` holds the delay lines, 2 · sections · lanes doubles:
/// section s keeps s1 of lane l at `state[2s * lanes + l]` and s2 at
/// `state[(2s + 1) * lanes + l]`. It is read on entry and written back on
/// exit. Per lane, frame and section every backend performs exactly
/// Biquad::Process's `y = b0·x + s1; s1 = b1·x − a1·y + s2;
/// s2 = b2·x − a2·y` as separate multiplies and adds in that order
/// (never FMA), so lanes never interact and each lane's bits are those
/// of the one-lane scalar loop (NaN payloads aside: which NaN operand
/// an add passes on is not part of the contract).
///
/// `weighted_row_sums` is FCM's M-step over a block of `rows` points
/// of dimension d >= 1. With the weights row-major (`w[k * c + i]`,
/// point k, centre i) and the points row-major (`x[k * d + j]`), it
/// writes `sums[i * d + j] = Σ_k w[k·c + i] · x[k·d + j]` and
/// `totals[i] = Σ_k w[k·c + i]`. Each is a running sum that starts from
/// +0.0 and takes k in increasing order, one multiply and then one add
/// per term (never FMA), so every backend writes the bits of the scalar
/// loop. The x86 backends put dims in SIMD lanes and keep a block of
/// centre rows in registers across the points (NaN payloads aside, as
/// above).
struct KernelOps {
  const char* name;
  double (*squared_l2_pair)(const double* x, const double* y, size_t d);
  void (*l2_one_to_many)(const double* query, const double* block,
                         size_t rows, size_t d, double* out);
  void (*l2dot_one_to_many)(const double* query, double query_sq,
                            const double* block, const double* norms_sq,
                            size_t rows, size_t d, double* out);
  void (*ssd8_one_to_many)(const uint8_t* qcodes, const uint8_t* codes,
                           size_t rows, size_t d, uint32_t* out);
  void (*ssd4_one_to_many)(const uint8_t* qpacked, const uint8_t* packed,
                           size_t rows, size_t d, uint32_t* out);
  void (*l2dot_f32_one_to_many)(const float* query, float query_sq,
                                const float* block, const float* norms_sq,
                                size_t rows, size_t d, float* out);
  void (*row_norms_f32)(const float* block, size_t rows, size_t d,
                        float* out);
  void (*l2_gather)(const double* query, const double* block,
                    const uint32_t* row_indices, size_t n, size_t d,
                    double* out);
  void (*biquad_cascade_lanes)(const double* coeffs, size_t sections,
                               double* state, double* data, size_t frames,
                               size_t lanes, bool reverse);
  void (*l2_tiles)(const double* query, const double* tiles, size_t rows,
                   size_t d, double* out);
  void (*weighted_row_sums)(const double* w, size_t c, const double* x,
                            size_t d, size_t rows, double* sums,
                            double* totals);
};

/// \brief Stable lowercase name ("auto", "scalar", "avx2", ...).
const char* KernelBackendName(KernelBackend backend);

/// \brief Parses a backend name (as accepted by MOCEMG_KERNEL).
Result<KernelBackend> ParseKernelBackend(const std::string& name);

/// \brief The backend currently answering dispatched kernel calls
/// (never kAuto — detection has resolved it).
KernelBackend ActiveKernelBackend();

/// \brief Backends compiled into this binary (always includes kScalar).
std::vector<KernelBackend> CompiledKernelBackends();

/// \brief Compiled backends the current CPU can execute.
std::vector<KernelBackend> UsableKernelBackends();

/// \brief Forces the active backend. kAuto re-runs detection (honouring
/// MOCEMG_KERNEL). Fails with FailedPrecondition when the backend is
/// not compiled in or the CPU lacks the features; the active table is
/// unchanged on error. Thread-safe, but swapping mid-scan gives a mix
/// of (bit-identical) backends — intended for startup / tests.
Status SetKernelBackend(KernelBackend backend);

/// \brief The ops table of a specific backend, or nullptr when that
/// backend is not compiled in / not usable on this CPU. kAuto returns
/// the auto-detected table. Exposed for the equivalence tests and the
/// kernel micro-benchmarks; library code should call the dispatched
/// entry points instead.
const KernelOps* GetKernelOps(KernelBackend backend);

/// \brief Snapshot of the dispatch decision for stats / bench metadata.
struct KernelDispatchInfo {
  std::string active;         ///< active backend name
  std::string compiled;       ///< comma-joined compiled backend names
  std::string usable;         ///< comma-joined CPU-usable backend names
  std::string cpu_features;   ///< detected feature flags, comma-joined
  bool env_override = false;  ///< MOCEMG_KERNEL forced a non-auto pick
};

/// \brief Returns the current dispatch decision + CPU feature flags.
KernelDispatchInfo GetKernelDispatchInfo();

namespace internal {
/// The table the dispatched entry points read (acquire-loaded once per
/// call). Initializes dispatch on first use.
const KernelOps& ActiveKernelOps();
}  // namespace internal

}  // namespace mocemg

#endif  // MOCEMG_UTIL_KERNEL_DISPATCH_H_
