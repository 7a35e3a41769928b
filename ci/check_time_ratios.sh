#!/usr/bin/env bash
# Within-run time-ratio gate: parallel execution must never be slower
# than sequential execution of the same batch. For each gated mode X
# it requires
#
#   median(BenchmarkModes/X-N) <= 1.25 * median(BenchmarkModes/X)
#
# where X-N runs at GOMAXPROCS=N (go test -cpu N). Both sides are
# measured in the same job, interleaved round by round, so machine load
# shifts both and cancels out of the ratio — the same reason the
# allocation gate counts allocations rather than nanoseconds. Each
# side is the median of 5 rounds of -benchtime 20x. N is 2, which
# every CI runner can run truly in parallel: a GOMAXPROCS above the
# core count times oversubscription, not the parallel path (on a
# 2-vCPU host the CJOIN-4 ratio's median was 0.90 but its 5-round
# medians reached 1.26).
set -euo pipefail
cd "$(dirname "$0")/.."

rounds=5
n=2
max_ratio=1.25
modes="Baseline CJOIN"

go test -c -o /dev/null . # fail fast on a build error, before any timing
out=""
for r in $(seq 1 "$rounds"); do
    out+=$(go test -run '^$' -bench "^BenchmarkModes\$/^($(tr ' ' '|' <<<"$modes"))\$" \
        -benchtime 20x -count 1 -cpu "1,$n" .)
    out+=$'\n'
done
echo "$out" | grep '^Benchmark'
echo

# median <name>: median ns/op of the rows named exactly <name>.
median() {
    awk -v n="$1" '$1 == n { for (i = 1; i <= NF; i++) if ($i == "ns/op") print $(i-1) }' <<<"$out" |
        sort -n | awk '{ v[NR] = $1 } END {
            if (NR == 0) exit 1
            if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2
        }'
}

fail=0
for m in $modes; do
    seq_ns=$(median "BenchmarkModes/$m") || { echo "check_time_ratios: no rows for BenchmarkModes/$m" >&2; exit 1; }
    par_ns=$(median "BenchmarkModes/$m-$n") || { echo "check_time_ratios: no rows for BenchmarkModes/$m-$n" >&2; exit 1; }
    ratio=$(awk -v p="$par_ns" -v s="$seq_ns" 'BEGIN { printf "%.2f", p / s }')
    echo "BenchmarkModes/$m-$n / BenchmarkModes/$m: median ${par_ns} / ${seq_ns} ns/op = ${ratio} (max ${max_ratio})"
    if awk -v r="$ratio" -v m="$max_ratio" 'BEGIN { exit !(r > m) }'; then
        echo "check_time_ratios: FAIL — BenchmarkModes/$m-$n is ${ratio}x BenchmarkModes/$m" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_time_ratios: OK"
