#!/usr/bin/env sh
# CI stage: perfbench check. Runs each benchmark workload briefly,
# untraced, then one traced pass (which covers all three pipelines and
# the kernel probes through the timing wrappers), and fails unless each
# summary line (the last line of stdout) reports `"correct": true` and
# `"failed": 0`. perfbench checks every epoch's loss/accuracy bits and
# every served-logit digest against perfbench/expected/outputs.txt, so a
# change that moves training or serving bits, traced or not, fails here
# even though every timing is ignored.
#
# The traced pass also gates two exact counts of train-mlp16, whose
# backward runs posit(16,2) on the 256-bit stack accumulator: every GEMM
# takes a fixed-width integer path (`mlp16.obs.gemm_wide_share` is 0, no
# call falls back to the heap limb quire), and a training step allocates
# fewer than 5,000 times (`mlp16.mem.allocs_per_step`; one limb quire per
# weight made it 474,724).
#
#   ci/perfbench-check.sh [seed]    (default seed 0)
set -eu
cd "$(dirname "$0")/.."

seed="${1:-0}"
failed=0

# check <workload> <trace>: one perfbench run, judged by its summary line
# (kept in `last`).
check() {
    last=""
    echo "==> perfbench --workload $1 --seed $seed --seconds 2 --trace $2"
    out=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed "$seed" --seconds 2 --trace "$2") || {
        echo "FAIL: perfbench exited non-zero on $1 (trace $2)"
        failed=1
        return 0
    }
    last=$(printf '%s\n' "$out" | tail -n 1)
    if printf '%s' "$last" | grep -q '"correct": true' &&
        printf '%s' "$last" | grep -q '"failed": 0[,}]'; then
        echo "ok: $1 (trace $2)"
    else
        echo "FAIL: $1 (trace $2) summary: $last"
        failed=1
    fi
}

for workload in train-lenet8 train-mlp16 serve-lenet8; do
    check "$workload" 0
done
check train-lenet8 1

# gate <metric> <awk condition on v>: one metric of the traced summary.
gate() {
    v=$(printf '%s' "$last" | sed -n "s/.*\"$1\": {\"value\": \([^,]*\),.*/\1/p")
    if [ -n "$v" ] && awk -v v="$v" "BEGIN { exit !($2) }"; then
        echo "ok: $1 = $v ($2)"
    else
        echo "FAIL: $1 = ${v:-missing}, want $2"
        failed=1
    fi
}
gate mlp16.obs.gemm_wide_share "v == 0"
gate mlp16.mem.allocs_per_step "v < 5000"
exit "$failed"
