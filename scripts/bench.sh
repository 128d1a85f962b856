#!/bin/sh
# Benchmark trajectory gate: runs the solver and DRAT benchmark suites and
# distills `go test -bench` output into machine-readable BENCH_solver.json
# so successive PRs can diff ns/op, allocs/op, the solver benchmarks' exact
# search counters (props/op, conflicts/op, reductions/op) and throughput
# (props/sec, conflicts/sec) per generator family instead of eyeballing
# raw benchmark logs.
#
# Usage: ./scripts/bench.sh [benchtime]      (default 1s; use e.g. 3s for
# lower-variance numbers, 1x for a smoke run). Writes BENCH_solver.json in
# the repo root (override the path with BENCH_OUT=..., as check.sh's
# regression gate does) and echoes the raw benchmark lines as they arrive.
#
# BENCH_COUNT=N (default 3) runs each benchmark N times and keeps the
# fastest sample per benchmark: scheduler preemption and frequency
# scaling only ever ADD time, so min-of-N is the low-variance estimator
# of a benchmark's true cost — a single sample can swing ±20% on a busy
# host and fail the delta gate on unchanged code.
set -eu

BENCHTIME="${1:-1s}"
COUNT="${BENCH_COUNT:-3}"
OUT="${BENCH_OUT:-BENCH_solver.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
	./internal/solver ./internal/drat ./internal/portfolio | tee "$RAW"

awk -v benchtime="$BENCHTIME" '
	function family(name) {
		if (name ~ /^Portfolio/) return "portfolio"
		if (name ~ /^Incremental/ || name ~ /^SessionSteps/) return "incremental"
		if (name ~ /Random3SAT/ || name ~ /ReduceCost/) return "random3sat"
		if (name ~ /Pigeonhole/) return "pigeonhole"
		if (name ~ /Miter/) return "miter"
		if (name ~ /Tseitin/) return "tseitin"
		if (name ~ /Propagation/) return "chain"
		if (name ~ /EmitAndCheck/ || name ~ /RUPCheck/) return "drat"
		return "other"
	}
	function jsonkey(unit) {
		gsub(/\//, "_per_", unit)
		gsub(/-/, "_", unit)
		return unit
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)           # strip the -GOMAXPROCS suffix
		sub(/^Benchmark/, "", name)
		rec = sprintf("{\"name\": \"%s\", \"family\": \"%s\", \"iterations\": %s", \
			name, family(name), $2)
		# remaining fields come in value/unit pairs: 1234 ns/op 56 B/op ...
		ns = 0
		for (i = 3; i + 1 <= NF; i += 2) {
			if ($(i + 1) == "ns/op") ns = $i + 0
			rec = rec sprintf(", \"%s\": %s", jsonkey($(i + 1)), $i)
		}
		rec = rec "}"
		# -count samples repeat each name; keep the fastest (min ns/op).
		if (!(name in bestns)) order[++n] = name
		if (!(name in bestns) || ns < bestns[name]) {
			bestns[name] = ns
			best[name] = rec
		}
	}
	END {
		if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
		for (i = 1; i <= n; i++)
			printf "    %s%s\n", best[order[i]], (i < n ? "," : "")
	}
' "$RAW" > "$OUT.tmp"

{
	echo "{"
	echo "  \"benchtime\": \"$BENCHTIME\","
	echo "  \"count\": $COUNT,"
	echo "  \"go\": \"$(go env GOVERSION)\","
	echo "  \"benchmarks\": ["
	cat "$OUT.tmp"
	echo "  ]"
	echo "}"
} > "$OUT"
rm -f "$OUT.tmp"

echo "wrote $OUT"
