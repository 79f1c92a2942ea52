#!/usr/bin/env bash
# The one command of the benchmark. Builds the `lightyear` CLI at the
# root and the harness here (both --offline), then:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload in its own process; the last stdout line
#       is the result object. This is what BENCHMARK.json's command is.
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, plain then traced: every metric by name with its
#       unit, every verdict checked, and the layer ledger table made from
#       the raw records in benchmark/out/.
#   benchmark/run.sh --repeat [--seed N] [--seconds S]
#       the above twice back to back, then fail if the two sets disagree
#       by more than the bounds in BENCHMARK.json.
#
# Exits non-zero when the build fails or any op failed.
set -euo pipefail
cd "$(dirname "$0")/.."

# A target directory given by the caller holds both builds; otherwise
# each workspace keeps its own.
cargo build --release --offline -p lightyear-cli
cargo build --release --offline --manifest-path benchmark/Cargo.toml
export LIGHTYEAR_BIN="${CARGO_TARGET_DIR:-target}/release/lightyear"
bins="${CARGO_TARGET_DIR:-benchmark/target}/release"

# Not exec: the harness reads its children's peak memory, and a process
# that replaces this shell would inherit cargo as one of them.
case " $* " in
*" --workload "*)
    "$bins/harness" "$@"
    exit
    ;;
esac

repeat=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
    --repeat) repeat=1; shift ;;
    --seed | --seconds) pass+=("$1" "$2"); shift 2 ;;
    *) echo "usage: see the head of $0" >&2; exit 2 ;;
    esac
done

status=0
run_set() {
    mkdir -p "$1"
    for w in zoo-homog zoo-hetero wan-edits wan-faulty-cli; do
        for t in 0 1; do
            "$bins/harness" --workload "$w" ${pass[@]+"${pass[@]}"} --trace "$t" |
                tee "$1/$w.trace$t.txt" || status=1
            tail -n 1 "$1/$w.trace$t.txt" >"$1/$w.trace$t.json"
        done
        "$bins/report" table "benchmark/out/$w.traced.jsonl"
    done
}

run_set benchmark/out/set1
if [ "$repeat" = 1 ]; then
    run_set benchmark/out/set2
    "$bins/report" compare BENCHMARK.json benchmark/out/set1 benchmark/out/set2 || status=1
fi
exit "$status"
