#!/usr/bin/env sh
# Staged CI runner for the posit-dnn workspace.
#
#   ci/run.sh [--quick]
#
# Runs every stage (fmt, lint, test, chaos-smoke, perfbench-check,
# bench-smoke, doc) even when an earlier one fails, timing each, then
# prints a summary table and exits non-zero if any stage failed. `--quick` is forwarded to the test
# stage (skips the release build). The summary also reports the Rust line
# count (crates, src, tests, examples), the size figure ROADMAP.md tracks;
# it is a report, not a gate.
set -u
cd "$(dirname "$0")/.."

quick=""
for arg in "$@"; do
    [ "$arg" = "--quick" ] && quick="--quick"
done

stages="fmt lint test chaos-smoke perfbench-check bench-smoke doc"
results=""
failed=0

for stage in $stages; do
    echo ""
    echo "===== stage: $stage ====="
    start=$(date +%s)
    if [ "$stage" = "test" ]; then
        sh "ci/$stage.sh" $quick
    else
        sh "ci/$stage.sh"
    fi
    code=$?
    end=$(date +%s)
    dur=$((end - start))
    if [ "$code" -eq 0 ]; then
        status="ok"
    else
        status="FAIL"
        failed=1
    fi
    results="$results$stage $status ${dur}s\n"
    echo "===== stage: $stage -> $status (${dur}s) ====="
done

echo ""
echo "===== CI summary ====="
printf "%-14s %-6s %s\n" "stage" "status" "time"
printf "$results" | while read -r name status dur; do
    [ -n "$name" ] && printf "%-14s %-6s %s\n" "$name" "$status" "$dur"
done
printf "%-14s %s\n" "rust lines" "$(find crates src tests examples -name '*.rs' | xargs cat | wc -l | tr -d ' ')"
echo "======================"

if [ "$failed" -ne 0 ]; then
    echo "CI: FAILED"
    exit 1
fi
echo "CI: OK"
