#!/usr/bin/env bash
# Configure, build, and run the full test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (default) or
# ThreadSanitizer.
#
# Usage: tools/run_sanitized_tests.sh [asan|tsan] [ctest args...]
set -euo pipefail

preset="${1:-asan}"
shift || true
case "$preset" in
  asan|tsan) ;;
  *)
    echo "usage: $0 [asan|tsan] [ctest args...]" >&2
    exit 2
    ;;
esac

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" "$@"

# Kernel-backend rerun matrix: the main pass above runs under the
# dispatched default (widest SIMD backend this CPU supports). Re-run
# the kernel and index suites with the backend pinned to the scalar
# reference and then explicitly to the dispatched best, so both sides
# of the bit-exactness contract get sanitizer coverage — the scalar
# fallback path is otherwise dead code on machines with AVX2/AVX-512.
# BatchQuery is the batch-query suite (tests/db/batch_query_test.cc):
# together with the fp32 loop below, the batch entry points get
# sanitizer coverage under MOCEMG_KERNEL={scalar,auto} x
# MOCEMG_EXACT_PRECISION={f64,f32}. FeatureIndex also matches the
# mutation oracle (FeatureIndexOracleTest).
# QueryServer is the served index path (its bit-identity tests scan
# through the tiled f64 kernel, §19).
# Acquisition|Biquad|Resample|Butterworth are the EMG conditioning
# suites (§17): they drive the biquad lane kernel one lane at a time
# and with every channel in lockstep, on both backends.
# Fcm|EvaluateMembership|Reproduction run the FCM fit and the batch
# membership rows (§20) through l2_tiles and weighted_row_sums, against
# the earlier per-point fit and the pinned fig 6-9 grids.
for kern in scalar auto; do
  echo "== $preset: kernel/index/conditioning/FCM suites under" \
    "MOCEMG_KERNEL=$kern =="
  MOCEMG_KERNEL="$kern" ctest --preset "$preset" \
    -R 'Kernel|Quant|Distance|FeatureIndex|Snapshot|BatchQuery|QueryServer|Acquisition|Biquad|Resample|Butterworth|Fcm|EvaluateMembership|Reproduction' \
    --output-on-failure
done

# fp32 exact-tier rerun matrix: the same suites again with the
# default exact precision forced to the fp32 mirror tier, crossed
# with both kernel backends. Tests that build with explicit options
# are unaffected (options beat the env default, §15.4); tests that
# build with defaults now route their scans through the mirror +
# refine path, so the bound arithmetic, the norm gate, and the
# refine's double re-evaluation all get sanitizer coverage on both
# the scalar and the dispatched kernels.
for kern in scalar auto; do
  echo "== $preset: kernel/index suites under" \
    "MOCEMG_EXACT_PRECISION=f32 MOCEMG_KERNEL=$kern =="
  MOCEMG_EXACT_PRECISION=f32 MOCEMG_KERNEL="$kern" \
    ctest --preset "$preset" \
    -R 'Kernel|Quant|Distance|FeatureIndex|Snapshot|BatchQuery|QueryServer' \
    --output-on-failure
done

if [[ "$preset" == "tsan" ]]; then
  # Second pass over the parallel substrate with a forced 8-thread
  # budget: on a small machine the auto budget can resolve to one
  # worker, and tsan would then certify what was effectively a serial
  # execution. The determinism tests double as the data-race proof for
  # every parallelized stage (featurization, FCM, batch kNN/classify),
  # the fault-injected serving tests exercise concurrent clients
  # against stalls, injected failures, and deadline sheds, and
  # ParallelSwapIndexConcurrentSubmitsNeverTorn covers index swaps
  # under racing submitters.
  echo "== tsan: parallel substrate again under MOCEMG_THREADS=8 =="
  MOCEMG_THREADS=8 ctest --preset tsan -R 'Parallel|ServingFault' \
    --output-on-failure
fi
