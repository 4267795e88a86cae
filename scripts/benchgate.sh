#!/usr/bin/env bash
# benchgate.sh BASE.txt PR.txt [MAX_REGRESSION_PCT] [BENCH_NAME] [UNIT]
# benchgate.sh --speedup PR.txt MIN_RATIO FAST_BENCH SLOW_BENCH [UNIT]
# benchgate.sh --overhead PR.txt MAX_PCT BASE_BENCH LOADED_BENCH [UNIT]
# benchgate.sh --median FILE BENCH [UNIT]
#
# Minimal benchstat-style regression gate: extracts the ns/op samples of
# one benchmark from two `go test -bench` outputs, compares their medians,
# and fails when the PR median regresses past the threshold. Medians over
# several -count repetitions keep a single noisy sample (CI neighbours,
# GC pause) from failing or passing the gate on its own. UNIT picks
# another metric of the same rows, e.g. B/op from a -benchmem run;
# custom b.ReportMetric units work too — the write-path gate compares
# BenchmarkCheckpointStall's stall-ns/ckpt between base and PR. A base
# median of 0 (allocs/op of an allocation-free path) passes only a PR
# median of 0, since no percentage of it exists.
#
# --speedup gates a ratio within ONE bench output instead: the median of
# SLOW_BENCH divided by the median of FAST_BENCH must be at least
# MIN_RATIO. It suits two different transports or mechanisms that do
# the same job — e.g. the pipelined TCP frame loop against HTTP serving
# the same cached /snapshot body. UNIT picks which benchmark metric to
# compare (default ns/op).
#
# --overhead is --speedup's inverse: the median of LOADED_BENCH may
# exceed the median of BASE_BENCH by at most MAX_PCT percent. It gates a
# feature that is supposed to cost (almost) nothing on an existing path —
# e.g. multi-tenant routing on cached snapshot reads, where the routed
# row adds tenant resolution to an otherwise identical request.
#
# --median gates nothing: it prints BENCH's median UNIT in FILE, for a
# metric that is recorded before a base exists to gate it against.
#
# The gate fails loudly — never vacuously: a missing/empty input file, a
# bench run that ended in FAIL, or an input with zero samples of the
# target benchmark all exit non-zero with a diagnostic, so a broken bench
# binary can't slide a regression through as "no data, no problem".
set -euo pipefail

die() { echo "benchgate: $*" >&2; exit 2; }

check_file() {
    [ -e "$1" ] || die "bench output $1 does not exist — did the bench binary build/run at all?"
    [ -s "$1" ] || die "bench output $1 is empty — the bench run produced nothing"
    if grep -q '^FAIL' "$1"; then
        die "bench output $1 contains a FAIL line — the bench run errored; refusing to compare"
    fi
}

median() {
    # median FILE BENCH [UNIT]: prints BENCH's median UNIT (default
    # ns/op) in FILE. A bench line is "Name iters  v1 unit1  v2 unit2 …"
    # so the value/unit pairs are scanned from field 3.
    awk -v bench="$2" -v unit="${3:-ns/op}" '
        $1 ~ "^"bench"(-[0-9]+)?$" {
            for (i = 3; i < NF; i += 2) if ($(i+1) == unit) { v[n++] = $i; break }
        }
        END {
            if (n == 0) { print "NA"; exit }
            # insertion sort: counts are tiny
            for (i = 1; i < n; i++) {
                x = v[i]
                for (j = i - 1; j >= 0 && v[j] > x; j--) v[j+1] = v[j]
                v[j+1] = x
            }
            if (n % 2) print v[(n-1)/2]
            else printf "%.2f\n", (v[n/2-1] + v[n/2]) / 2
        }' "$1"
}

if [ "${1:-}" = "--speedup" ]; then
    shift
    [ $# -ge 4 ] || die "usage: benchgate.sh --speedup PR.txt MIN_RATIO FAST_BENCH SLOW_BENCH [UNIT]"
    file=$1 min_ratio=$2 fast=$3 slow=$4 unit=${5:-ns/op}
    check_file "$file"
    fast_ns=$(median "$file" "$fast" "$unit")
    slow_ns=$(median "$file" "$slow" "$unit")
    [ "$fast_ns" != "NA" ] || die "no $fast $unit samples in $file — wrong -bench filter or the bench run failed"
    [ "$slow_ns" != "NA" ] || die "no $slow $unit samples in $file — wrong -bench filter or the bench run failed"
    echo "benchgate: median $unit: $slow=$slow_ns $fast=$fast_ns (want >= ${min_ratio}x)"
    awk -v s="$slow_ns" -v f="$fast_ns" -v m="$min_ratio" 'BEGIN {
        ratio = s / f
        printf "benchgate: speedup %.1fx\n", ratio
        exit (ratio < m) ? 1 : 0
    }' || { echo "benchgate: FAIL — $fast is less than ${min_ratio}x faster than $slow" >&2; exit 1; }
    echo "benchgate: OK"
    exit 0
fi

if [ "${1:-}" = "--median" ]; then
    shift
    [ $# -ge 2 ] || die "usage: benchgate.sh --median FILE BENCH [UNIT]"
    file=$1 bench=$2 unit=${3:-ns/op}
    check_file "$file"
    v=$(median "$file" "$bench" "$unit")
    [ "$v" != "NA" ] || die "no $bench $unit samples in $file — wrong -bench filter or the bench run failed"
    echo "benchgate: $bench median $unit: $v"
    exit 0
fi

if [ "${1:-}" = "--overhead" ]; then
    shift
    [ $# -ge 4 ] || die "usage: benchgate.sh --overhead PR.txt MAX_PCT BASE_BENCH LOADED_BENCH [UNIT]"
    file=$1 max_pct=$2 base=$3 loaded=$4 unit=${5:-ns/op}
    check_file "$file"
    base_ns=$(median "$file" "$base" "$unit")
    loaded_ns=$(median "$file" "$loaded" "$unit")
    [ "$base_ns" != "NA" ] || die "no $base $unit samples in $file — wrong -bench filter or the bench run failed"
    [ "$loaded_ns" != "NA" ] || die "no $loaded $unit samples in $file — wrong -bench filter or the bench run failed"
    echo "benchgate: median $unit: $base=$base_ns $loaded=$loaded_ns (limit +$max_pct%)"
    awk -v b="$base_ns" -v l="$loaded_ns" -v m="$max_pct" 'BEGIN {
        if (b == 0) {
            printf "benchgate: base is 0, loaded %s\n", l
            exit (l > 0) ? 1 : 0
        }
        delta = (l - b) / b * 100
        printf "benchgate: overhead %+.1f%%\n", delta
        exit (delta > m) ? 1 : 0
    }' || { echo "benchgate: FAIL — $loaded costs more than $max_pct% over $base" >&2; exit 1; }
    echo "benchgate: OK"
    exit 0
fi

[ $# -ge 2 ] || die "usage: benchgate.sh BASE.txt PR.txt [MAX_REGRESSION_PCT] [BENCH_NAME] [UNIT]"

base_file=$1
pr_file=$2
max_pct=${3:-15}
bench=${4:-BenchmarkDynamicUpdate}
unit=${5:-ns/op}

for f in "$base_file" "$pr_file"; do
    check_file "$f"
done

base_v=$(median "$base_file" "$bench" "$unit")
pr_v=$(median "$pr_file" "$bench" "$unit")

[ "$base_v" != "NA" ] || die "no $bench $unit samples in $base_file — wrong -bench filter or a stale/failed base binary"
[ "$pr_v" != "NA" ] || die "no $bench $unit samples in $pr_file — wrong -bench filter or the PR bench run failed"

echo "benchgate: $bench median $unit: base=$base_v pr=$pr_v (limit +$max_pct%)"
# A zero base (allocs/op of an allocation-free path) admits no relative
# delta: the PR passes only at zero too.
awk -v b="$base_v" -v p="$pr_v" -v m="$max_pct" 'BEGIN {
    if (b == 0) {
        printf "benchgate: base is 0, pr %s\n", p
        exit (p > 0) ? 1 : 0
    }
    delta = (p - b) / b * 100
    printf "benchgate: delta %+.1f%%\n", delta
    exit (delta > m) ? 1 : 0
}' || { echo "benchgate: FAIL — $bench $unit regressed more than $max_pct%" >&2; exit 1; }
echo "benchgate: OK"
