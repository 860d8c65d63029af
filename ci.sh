#!/usr/bin/env sh
# CI gate for the posit-dnn workspace — thin wrapper over the staged
# pipeline in ci/ (fmt, lint, test, chaos-smoke, perfbench-check,
# bench-smoke, doc). See ci/run.sh for the stage list, per-stage timing
# and the --quick mode.
exec sh "$(dirname "$0")/ci/run.sh" "$@"
