#!/usr/bin/env sh
# CI stage: the tier-1 gate — release build plus the full test suite, and
# the exhaustive packed-storage suite re-run in release mode (its code-point
# sweeps are cheap there, and release is where the encode/decode fast paths
# actually run).
#
#   --quick   skip the release build and the release-mode storage suite
#             (debug tests only)
set -eu
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    [ "$arg" = "--quick" ] && quick=1
done

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
else
    echo "==> (--quick: skipping cargo build --release)"
fi

echo "==> cargo test -q"
cargo test -q

if [ "$quick" -eq 0 ]; then
    echo "==> cargo test -q --release -p posit-tensor --test storage_exhaustive"
    cargo test -q --release -p posit-tensor --test storage_exhaustive
    echo "==> cargo test -q --release -p posit-tensor --test posit_gemm_exhaustive"
    cargo test -q --release -p posit-tensor --test posit_gemm_exhaustive
    echo "==> cargo test -q --release -p posit-store --test store_exhaustive"
    cargo test -q --release -p posit-store --test store_exhaustive
    # The thread-invariance suite re-runs in release on a forced 4-thread
    # pool: the debug run above already covers the sweep, but the
    # narrow-quire fast paths and the pooled kernels only run their
    # release code here (the parent pins POSIT_TENSOR_THREADS per child,
    # so the outer value just widens the parent's own pool).
    echo "==> POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-train --test thread_determinism"
    POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-train --test thread_determinism
    # Same reasoning for the serving batcher: the debug run covers the
    # semantics, the release run pins batched-vs-single bit-equality on
    # the release quire kernels (children pin their own thread counts).
    echo "==> POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-serve --test batcher_determinism"
    POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-serve --test batcher_determinism
    # Determinism under instrumentation: the obs suites force recording
    # off for their own baselines, so POSIT_OBS=1 here exercises the
    # env-enabled path end to end (training + serving re-run with every
    # release-mode kernel counter live) and the fingerprints must still
    # match the uninstrumented bits.
    echo "==> POSIT_OBS=1 POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-train --test obs_determinism"
    POSIT_OBS=1 POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-train --test obs_determinism
    echo "==> POSIT_OBS=1 POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-serve --test obs_determinism"
    POSIT_OBS=1 POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-serve --test obs_determinism
    # The chaos matrix (ci/chaos-smoke.sh runs it in debug) re-runs in
    # release on the widened pool: fault-recovery bit-exactness must hold
    # on the release kernels and under threaded execution, since that is
    # what production resume actually runs.
    echo "==> POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-train --test fault_matrix"
    POSIT_TENSOR_THREADS=4 cargo test -q --release -p posit-train --test fault_matrix
else
    echo "==> (--quick: skipping release-mode exhaustive suites)"
fi
