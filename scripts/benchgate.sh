#!/bin/sh
# Benchmark regression gate for pull requests, in two parts.
#
# Part 1 (relative): runs the two headline hot-path benchmarks
# (BenchmarkT1LongWindowN40, BenchmarkT8Scaling) and the LP cost
# matrix (BenchmarkSolveMatrix: one sub-benchmark per workload family
# × n cell) on the working tree and on a base ref checked out into a
# throwaway git worktree, then fails if any gated sub-benchmark's mean
# ns/op — or, where both sides report it, mean allocs/op — regressed
# by more than BENCHGATE_PCT percent (default 10). The matrix enters
# the gate as one figure, the geometric mean of the head/base ns/op
# ratios of its cells that run the LP (the base reports pivots/op > 0);
# each cell's own ratio is printed for information only. Single cells
# are too noisy to gate at 10%: comparing two runs of unchanged code
# on a 2-vCPU VM, a cell's runs varied by about 10% (coefficient of
# variation), and 8 of the 18 LP cells came out more than 10% slower
# in their mean of 3 in one direction or the other, while the
# geometric mean over the LP cells moved by +3.3% and -3.2%. The
# cells without an LP are printed but left out of the mean: their
# 15-260 µs solves only time the non-LP layers.
# Pivots per solve (pivots/op) are printed beside each cell for
# information only: a change of pivot path is legitimate when ties
# break differently.
#
# Part 2 (absolute): runs the service hot-path benchmarks
# (BenchmarkServiceSolve, BenchmarkServiceCacheHit) on the working
# tree only and fails if allocs/op exceeds a fixed ceiling. The
# allocation-free hot path is pinned in absolute terms because a
# relative gate would let the ceiling ratchet upward through a series
# of sub-threshold regressions.
#
# benchstat, when installed, prints its statistical report for the
# humans reading the log; the pass/fail decision itself is a pure-awk
# mean comparison so the gate needs nothing beyond the Go toolchain.
#
# Usage: ./scripts/benchgate.sh [base-ref]   (default origin/main)
# Env:   BENCHGATE_BENCHTIME (default 3x), BENCHGATE_COUNT (default 3),
#        BENCHGATE_PCT (default 10),
#        BENCHGATE_SERVICE_BENCHTIME (default 2000x),
#        BENCHGATE_SOLVE_ALLOCS (default 120),
#        BENCHGATE_CACHE_HIT_ALLOCS (default 40)
set -eu
cd "$(dirname "$0")/.."

BASE_REF="${1:-origin/main}"
BENCH='BenchmarkT1LongWindowN40|BenchmarkT8Scaling'
BENCHTIME="${BENCHGATE_BENCHTIME:-3x}"
COUNT="${BENCHGATE_COUNT:-3}"
PCT="${BENCHGATE_PCT:-10}"

if ! git rev-parse --verify --quiet "$BASE_REF^{commit}" >/dev/null; then
	echo "benchgate: base ref $BASE_REF does not resolve to a commit" >&2
	exit 1
fi

HEAD_OUT="$(mktemp)"
BASE_OUT="$(mktemp)"
SVC_OUT="$(mktemp)"
WT_PARENT="$(mktemp -d)"
WT="$WT_PARENT/base"
cleanup() {
	rm -f "$HEAD_OUT" "$BASE_OUT" "$SVC_OUT"
	git worktree remove --force "$WT" 2>/dev/null || true
	rm -rf "$WT_PARENT"
}
trap cleanup EXIT

# benchrun DIR runs both benchmark sets in the checkout at DIR. The
# matrix's cells take from ~15 µs to ~0.5 s per solve; at a fixed
# count of 3 the small ones measure scheduler noise, so the matrix runs
# for a duration per cell instead. No pipe into tee: a pipeline would
# mask go test's exit status under plain sh (same rationale as
# bench.sh).
benchrun() {
	(cd "$1" &&
		go test -run XXX -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" . &&
		go test -run XXX -bench BenchmarkSolveMatrix -benchtime 0.2s -count "$COUNT" .)
}

echo "benchgate: benchmarking head ($(git rev-parse --short HEAD))"
benchrun . >"$HEAD_OUT" 2>&1 || {
	cat "$HEAD_OUT"
	echo "benchgate: head benchmark run failed" >&2
	exit 1
}
cat "$HEAD_OUT"

echo "benchgate: benchmarking base ($(git rev-parse --short "$BASE_REF"))"
git worktree add --quiet --detach "$WT" "$BASE_REF"
benchrun "$WT" >"$BASE_OUT" 2>&1 || {
	cat "$BASE_OUT"
	echo "benchgate: base benchmark run failed" >&2
	exit 1
}
cat "$BASE_OUT"

REL_FAIL=0
SVC_FAIL=0

if command -v benchstat >/dev/null 2>&1; then
	echo "benchgate: benchstat report (informational)"
	benchstat "$BASE_OUT" "$HEAD_OUT" || true
fi

# Mean ns/op and allocs/op per sub-benchmark (CPU-count suffix
# stripped), base vs head; sub-benchmarks or units that exist on only
# one side are reported but never gate — a PR adding or renaming a
# benchmark (or turning on ReportAllocs) must not fail here.
awk -v pct="$PCT" '
FNR == NR && /^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") { bsum[name] += $(i - 1); bn[name]++ }
		if ($i == "allocs/op") { basum[name] += $(i - 1); ban[name]++ }
		if ($i == "pivots/op") { bpsum[name] += $(i - 1); bpn[name]++ }
	}
	next
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") { hsum[name] += $(i - 1); hn[name]++ }
		if ($i == "allocs/op") { hasum[name] += $(i - 1); han[name]++ }
		if ($i == "pivots/op") { hpsum[name] += $(i - 1); hpn[name]++ }
	}
}
END {
	fail = 0
	checked = 0
	for (name in hn) {
		if (!(name in bn)) {
			printf "benchgate: %s: not in base, skipped\n", name
			continue
		}
		base = bsum[name] / bn[name]
		head = hsum[name] / hn[name]
		delta = (head - base) / base * 100
		if (name ~ /^BenchmarkSolveMatrix\//) {
			status = "info"
			if (bpsum[name] > 0) { lsum += log(head / base); lcells++ }
		} else {
			checked++
			status = "ok"
			if (delta > pct) { status = "REGRESSION"; fail = 1 }
		}
		printf "benchgate: %-55s base %12.0f ns/op      head %12.0f ns/op      %+8.2f%%  %s\n", \
			name, base, head, delta, status
		if ((name in ban) && (name in han) && basum[name] > 0) {
			abase = basum[name] / ban[name]
			ahead = hasum[name] / han[name]
			adelta = (ahead - abase) / abase * 100
			status = "ok"
			if (adelta > pct) { status = "REGRESSION"; fail = 1 }
			printf "benchgate: %-55s base %12.0f allocs/op  head %12.0f allocs/op  %+8.2f%%  %s\n", \
				name, abase, ahead, adelta, status
		}
		if ((name in bpn) && (name in hpn) && bpsum[name] > 0) {
			pbase = bpsum[name] / bpn[name]
			phead = hpsum[name] / hpn[name]
			printf "benchgate: %-55s base %12.1f pivots/op  head %12.1f pivots/op  %+8.2f%%  info\n", \
				name, pbase, phead, (phead - pbase) / pbase * 100
		}
	}
	for (name in bn) {
		if (!(name in hn)) printf "benchgate: %s: missing from head, skipped\n", name
	}
	if (lcells > 0) {
		delta = (exp(lsum / lcells) - 1) * 100
		checked++
		status = "ok"
		if (delta > pct) { status = "REGRESSION"; fail = 1 }
		printf "benchgate: %-55s geometric mean over %d LP cells             %+8.2f%%  %s\n", \
			"BenchmarkSolveMatrix", lcells, delta, status
	}
	if (checked == 0) {
		print "benchgate: no comparable benchmarks between base and head" > "/dev/stderr"
		exit 1
	}
	if (fail) {
		printf "benchgate: FAIL — regression above %s%% threshold\n", pct > "/dev/stderr"
		exit 1
	}
	printf "benchgate: pass (%d sub-benchmarks within %s%%)\n", checked, pct
}' "$BASE_OUT" "$HEAD_OUT" || REL_FAIL=1

# --- absolute allocation ceilings on the service hot path -----------
# BenchmarkServiceCacheHit is the allocation-free hot path's floor
# (request decode + canonicalize + LRU hit + response encode);
# BenchmarkServiceSolve mixes fresh solves into the rotation. Both are
# head-only: the ceiling is the contract, not the previous commit.
SERVICE_BENCH='BenchmarkServiceSolve|BenchmarkServiceCacheHit'
SERVICE_BENCHTIME="${BENCHGATE_SERVICE_BENCHTIME:-2000x}"
SOLVE_ALLOCS_MAX="${BENCHGATE_SOLVE_ALLOCS:-120}"
HIT_ALLOCS_MAX="${BENCHGATE_CACHE_HIT_ALLOCS:-40}"

echo "benchgate: service allocation ceilings (solve <= $SOLVE_ALLOCS_MAX, cache hit <= $HIT_ALLOCS_MAX allocs/op)"
go test -run XXX -bench "$SERVICE_BENCH" -benchtime "$SERVICE_BENCHTIME" \
	-count "$COUNT" ./internal/server >"$SVC_OUT" 2>&1 || {
	cat "$SVC_OUT"
	echo "benchgate: service benchmark run failed" >&2
	exit 1
}
cat "$SVC_OUT"

awk -v solve_max="$SOLVE_ALLOCS_MAX" -v hit_max="$HIT_ALLOCS_MAX" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op") { sum[name] += $(i - 1); n[name]++ }
	}
}
END {
	fail = 0
	fail += gate("BenchmarkServiceSolve", solve_max)
	fail += gate("BenchmarkServiceCacheHit", hit_max)
	if (fail) {
		print "benchgate: FAIL — service allocation ceiling exceeded" > "/dev/stderr"
		exit 1
	}
	print "benchgate: service allocation ceilings pass"
}
function gate(name, max,    mean, status) {
	if (!(name in n)) {
		printf "benchgate: %s: no allocs/op reported\n", name > "/dev/stderr"
		return 1
	}
	mean = sum[name] / n[name]
	status = "ok"
	if (mean > max) status = "OVER CEILING"
	printf "benchgate: %-55s %8.0f allocs/op  (ceiling %s)  %s\n", name, mean, max, status
	return status == "ok" ? 0 : 1
}' "$SVC_OUT" || SVC_FAIL=1

# Both gates always run, so one failing cannot hide the other's report.
if [ "$REL_FAIL" -ne 0 ] || [ "$SVC_FAIL" -ne 0 ]; then
	exit 1
fi
