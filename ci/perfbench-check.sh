#!/usr/bin/env sh
# CI stage: perfbench check. Runs each benchmark workload briefly,
# untraced, and fails unless its summary line (the last line of stdout)
# reports `"correct": true` and `"failed": 0`. perfbench checks every
# epoch's loss/accuracy bits and every served-logit digest against
# perfbench/expected/outputs.txt, so a change that moves training or
# serving bits fails here even though every timing is ignored.
#
#   ci/perfbench-check.sh [seed]    (default seed 0)
set -eu
cd "$(dirname "$0")/.."

seed="${1:-0}"
failed=0
for workload in train-lenet8 train-mlp16 serve-lenet8; do
    echo "==> perfbench --workload $workload --seed $seed --seconds 2 --trace 0"
    out=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 2 --trace 0) || {
        echo "FAIL: perfbench exited non-zero on $workload"
        failed=1
        continue
    }
    last=$(printf '%s\n' "$out" | tail -n 1)
    if printf '%s' "$last" | grep -q '"correct": true' &&
        printf '%s' "$last" | grep -q '"failed": 0[,}]'; then
        echo "ok: $workload"
    else
        echo "FAIL: $workload summary: $last"
        failed=1
    fi
done
exit "$failed"
