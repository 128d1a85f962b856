#!/bin/sh
# Tier-1 gate: build, vet, a gofmt gate over the root module, full test
# suite, the race detector on the
# concurrency-bearing packages (portfolio racing, the sweep engine, the
# experiments runner, lock-free selector inference, solver cancellation,
# registry scrapes, the HTTP server, the shared LRU), a 1-iteration
# benchmark smoke, a 10-second differential fuzz of the DIMACS reader
# against the line-oriented reference it replaced, a 10-second
# differential fuzz of the coordinator's route key against the replica's
# decode and hash, a live metrics-endpoint smoke test,
# a portfolio determinism smoke (php-9 under -portfolio -deterministic
# must be byte-identical across runs and worker counts), a DRAT round
# trip (satsolve -proof on php-6, verified by dratcheck), an end-to-end
# smoke of the solving service (cache hit, queue shedding, SIGTERM
# drain), a trained-model
# smoke (neuroselect train writes a threshold into the model file, and
# neuroselect predict and neuroselect-serve -model choose the same policy
# for php-7, the server with no fallback; neuroselect solve -model runs
# the served auto solve's search; a formula solved before its first
# reduction answers no-reduction without an inference), an incremental
# warm-session smoke (a session's steps must answer exactly like cold
# solves of the equivalent accumulated formulas, and an idle session
# must expire after -session-ttl), an SSE telemetry smoke (live window
# events over GET /v1/jobs/{id}/events, a done event byte-identical to
# the poll body, moving stream metrics, JSON access lines), a chaos smoke
# (kill -9 mid-solve, restart over the same -journal directory, the job
# must still complete), a cluster smoke (coordinator + 2 replicas:
# sticky consistent-hash routing, a cache hit served through the proxy
# and keyed from both tiers' upload-key memos, failover after killing the
# owning replica, SIGTERM drain of the whole topology), four documentation gates (package comments, README flag
# freshness, declared flags for every flag the docs name, API.md metric
# freshness), a benchmark regression gate
# against BENCH_solver.json (skip with BENCH_DELTA_SKIP=1), and coverage
# gates on the experiments, portfolio and solver packages. Run from the
# repo root via `make check` or `./scripts/check.sh`.
set -eu

# Statement-coverage floor for neuroselect/internal/experiments. The
# pre-sweep-engine suite sat below this; the sweep engine's determinism,
# fault-injection, and sharding paths pushed it past 90%, and this gate
# keeps future changes from silently shedding that coverage.
EXPERIMENTS_COVER_FLOOR=85.0

# Statement-coverage floor for neuroselect/internal/portfolio. The
# N-worker portfolio suite (determinism goldens, differential oracle,
# cancellation/drain/faultpoint robustness) measures 88.5%; the floor
# leaves headroom for incidental drift but catches a shed test suite.
PORTFOLIO_COVER_FLOOR=80.0

# Statement-coverage floor for neuroselect/internal/solver. Every solve
# entry point shares one search loop, one restart driver and one
# level-zero clause install; the suite measures 95.3%, and the floor keeps
# the loop's assumption-prefix branches and all three callers of the
# install (construction, AddClause, clause import) exercised.
SOLVER_COVER_FLOOR=90.0

COVER_PROFILE=""
SMOKE_DIR=""
SMOKE_PID=""
SERVE_PID=""
R1_PID=""
R2_PID=""
COORD_PID=""
cleanup() {
	if [ -n "$SMOKE_PID" ]; then
		kill "$SMOKE_PID" 2>/dev/null || true
	fi
	if [ -n "$SERVE_PID" ]; then
		kill -9 "$SERVE_PID" 2>/dev/null || true
	fi
	for pid in $R1_PID $R2_PID $COORD_PID; do
		kill -9 "$pid" 2>/dev/null || true
	done
	if [ -n "$SMOKE_DIR" ]; then
		rm -rf "$SMOKE_DIR"
	fi
	if [ -n "$COVER_PROFILE" ]; then
		rm -f "$COVER_PROFILE"
	fi
}
trap cleanup EXIT

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l (root module)"
unformatted="$(find . -path ./bench -prune -o -name '*.go' -print | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt gate: FAIL — files need gofmt:"
	echo "$unformatted"
	exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race (concurrency-bearing packages)"
go test -race ./internal/experiments ./internal/portfolio \
	./internal/sweep ./internal/dataset ./internal/core \
	./internal/solver ./internal/faultpoint ./internal/obs \
	./internal/server ./internal/aiger ./internal/cluster ./internal/lru

echo "== benchmark smoke (1 iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x ./internal/solver ./internal/drat \
	./internal/portfolio ./internal/core ./internal/tensor \
	./internal/cnf ./internal/server ./internal/cluster > /dev/null

echo "== DIMACS reader differential fuzz smoke (10s)"
go test -run '^$' -fuzz '^FuzzParseMatchesReference$' -fuzztime 10s ./internal/cnf > /dev/null

echo "== route-key differential fuzz smoke (10s)"
go test -run '^$' -fuzz '^FuzzRouteKeyAgreesWithReplica$' -fuzztime 10s ./internal/cluster > /dev/null

echo "== metrics endpoint smoke (satsolve -metrics-addr)"
SMOKE_DIR="$(mktemp -d)"
go build -o "$SMOKE_DIR/satsolve" ./cmd/satsolve
go run ./cmd/satgen -family pigeonhole -n 9 > "$SMOKE_DIR/php9.cnf"
# A hard pigeonhole instance keeps the solver generating conflicts while we
# scrape; the timeout is a backstop — the smoke kills the solve once the
# counters have been observed moving.
"$SMOKE_DIR/satsolve" -metrics-addr 127.0.0.1:0 -model=false -timeout 120s \
	"$SMOKE_DIR/php9.cnf" > "$SMOKE_DIR/out.txt" &
SMOKE_PID=$!

addr=""
i=0
while [ -z "$addr" ] && [ "$i" -lt 100 ]; do
	addr="$(sed -n 's/^c metrics listening on //p' "$SMOKE_DIR/out.txt" 2>/dev/null)"
	if [ -z "$addr" ]; then
		sleep 0.1
	fi
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "metrics smoke: FAIL — satsolve never announced its listen address"
	exit 1
fi

curl -fsS "http://$addr/healthz" | grep -qx ok || {
	echo "metrics smoke: FAIL — /healthz did not answer ok"
	exit 1
}

ok=0
i=0
while [ "$i" -lt 100 ]; do
	if curl -fsS "http://$addr/metrics" 2>/dev/null | awk '
		$1 == "neuroselect_solver_conflicts_total" && $2 + 0 > 0 { found = 1 }
		END { exit(found ? 0 : 1) }'; then
		ok=1
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ "$ok" != 1 ]; then
	echo "metrics smoke: FAIL — /metrics conflicts counter never became nonzero"
	exit 1
fi
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
SMOKE_PID=""
echo "metrics smoke: /healthz ok, solver counters live at http://$addr/metrics"

echo "== portfolio determinism smoke (-portfolio -deterministic byte-identical)"
# The lockstep portfolio promises byte-identical output — answer, stats,
# exchange ledgers, propFreq hash — for any worker count and across
# repeated runs. Diff php-9 solved twice at -portfolio 4 and once at
# -portfolio 2: any wall-clock leak or scheduling dependence breaks the
# diff. (php9.cnf and the satsolve binary come from the metrics smoke.)
for run in det1 det2 det3; do
	case "$run" in
	det3) pn=2 ;;
	*) pn=4 ;;
	esac
	rc=0
	"$SMOKE_DIR/satsolve" -portfolio "$pn" -deterministic -stats -stats-json \
		"$SMOKE_DIR/php9.cnf" > "$SMOKE_DIR/$run.txt" || rc=$?
	if [ "$rc" != 20 ]; then
		echo "portfolio smoke: FAIL — php-9 run $run exited $rc, want 20 (UNSAT)"
		exit 1
	fi
done
cmp -s "$SMOKE_DIR/det1.txt" "$SMOKE_DIR/det2.txt" || {
	echo "portfolio smoke: FAIL — two -portfolio 4 -deterministic runs differ"
	diff "$SMOKE_DIR/det1.txt" "$SMOKE_DIR/det2.txt" | head -5
	exit 1
}
cmp -s "$SMOKE_DIR/det1.txt" "$SMOKE_DIR/det3.txt" || {
	echo "portfolio smoke: FAIL — -portfolio 4 and -portfolio 2 outputs differ"
	diff "$SMOKE_DIR/det1.txt" "$SMOKE_DIR/det3.txt" | head -5
	exit 1
}
echo "portfolio smoke: php-9 byte-identical across runs and worker counts"

echo "== DRAT round trip (satsolve -proof, dratcheck)"
# An UNSAT answer from the command line must carry a proof that the
# independent checker accepts.
go run ./cmd/satgen -family pigeonhole -n 6 > "$SMOKE_DIR/php6.cnf"
go build -o "$SMOKE_DIR/dratcheck" ./cmd/dratcheck
rc=0
"$SMOKE_DIR/satsolve" -proof "$SMOKE_DIR/php6.drat" "$SMOKE_DIR/php6.cnf" > /dev/null || rc=$?
if [ "$rc" != 20 ]; then
	echo "proof smoke: FAIL — satsolve -proof on php-6 exited $rc, want 20 (UNSAT)"
	exit 1
fi
verdict="$("$SMOKE_DIR/dratcheck" "$SMOKE_DIR/php6.cnf" "$SMOKE_DIR/php6.drat" 2>&1)" || true
if [ "$verdict" != "s VERIFIED" ]; then
	echo "proof smoke: FAIL — dratcheck said: $verdict"
	exit 1
fi
echo "proof smoke: php-6 UNSAT proof verified by dratcheck"

echo "== package-doc gate (every package states its role)"
fail=0
for d in . internal/* cmd/*; do
	ls "$d"/*.go >/dev/null 2>&1 || continue
	if ! grep -q -E '^// (Package|Command) ' "$d"/*.go; then
		echo "package-doc gate: FAIL — $d has no package comment"
		fail=1
	fi
done
if [ "$fail" != 0 ]; then
	exit 1
fi
echo "package-doc gate: all packages documented"

echo "== docs-freshness gate (every cmd/* flag appears in README's flag tables)"
fail=0
for f in cmd/*/main.go; do
	cmdname="$(basename "$(dirname "$f")")"
	# Top-level flags only: subcommand FlagSets (fs.String) document
	# themselves via their own -h and are out of the README tables' scope.
	flags="$(grep -oE 'flag\.(String|Bool|Int64|Int|Duration|Float64)\("[a-z][a-z0-9-]*"' "$f" |
		cut -d'"' -f2 | sort -u)"
	for fl in $flags; do
		if ! grep -q -- "\`-$fl\`" README.md; then
			echo "docs gate: FAIL — flag -$fl of cmd/$cmdname is not documented in README.md"
			fail=1
		fi
	done
done
if [ "$fail" != 0 ]; then
	exit 1
fi
echo "docs gate: every cmd flag documented"

echo "== docs-freshness gate (every backticked -flag in the docs names a declared cmd/* flag)"
# The reverse direction: a flag removed from every cmd/* must not leave
# stale rows or prose behind. Subcommand FlagSets (fs.*) count as
# declarations here.
declared="$(grep -ohE '(flag|fs)\.(String|Bool|Int64|Int|Duration|Float64)\("[a-z][a-z0-9-]*"' cmd/*/*.go |
	cut -d'"' -f2 | sort -u)"
fail=0
for doc in README.md OPERATIONS.md API.md DESIGN.md EXPERIMENTS.md; do
	for fl in $(grep -oE '`-[a-z][a-z0-9-]*`' "$doc" | sed 's/^`-//; s/`$//' | sort -u); do
		if ! echo "$declared" | grep -qx -- "$fl"; then
			echo "docs gate: FAIL — $doc mentions \`-$fl\`, which no cmd/* declares"
			fail=1
		fi
	done
done
if [ "$fail" != 0 ]; then
	exit 1
fi
echo "docs gate: every documented flag is declared"

echo "== docs-freshness gate (every registered metric name appears in API.md)"
# Every metric-name string literal in the program's Go sources must be
# documented (backticked) in API.md's metric tables — a new series
# without documentation, or a renamed one leaving a stale row, fails here.
fail=0
metric_files="$(find internal cmd -name '*.go' ! -name '*_test.go')"
metrics="$(grep -hoE '"(neuroselect|process|go)_[a-z_]+"' $metric_files |
	tr -d '"' | sort -u)"
for mname in $metrics; do
	if ! grep -q -- "\`$mname\`" API.md; then
		echo "docs gate: FAIL — metric $mname is not documented in API.md"
		fail=1
	fi
done
if [ "$fail" != 0 ]; then
	exit 1
fi
echo "docs gate: every registered metric documented in API.md ($(echo "$metrics" | wc -l | tr -d ' ') series)"

echo "== solving-service smoke (neuroselect-serve end to end)"
if [ -z "$SMOKE_DIR" ]; then
	SMOKE_DIR="$(mktemp -d)"
fi
go build -o "$SMOKE_DIR/neuroselect-serve" ./cmd/neuroselect-serve
go run ./cmd/satgen -family pigeonhole -n 7 > "$SMOKE_DIR/php7.cnf"
go run ./cmd/satgen -family pigeonhole -n 8 > "$SMOKE_DIR/php8.cnf"
go run ./cmd/satgen -family pigeonhole -n 12 > "$SMOKE_DIR/php12.cnf"
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 2 -queue 1 \
	-metrics-addr 127.0.0.1:0 > "$SMOKE_DIR/serve.txt" 2>&1 &
SERVE_PID=$!

api=""
i=0
while [ -z "$api" ] && [ "$i" -lt 100 ]; do
	api="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/serve.txt" 2>/dev/null)"
	[ -n "$api" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api" ]; then
	echo "serve smoke: FAIL — server never announced its listen address"
	exit 1
fi
maddr="$(sed -n 's/^metrics listening on //p' "$SMOKE_DIR/serve.txt")"

# Concurrent solves: two clients at once, both must decide php-8 UNSAT.
curl -fsS --data-binary @"$SMOKE_DIR/php8.cnf" "http://$api/v1/solve" \
	> "$SMOKE_DIR/r1.json" &
c1=$!
curl -fsS --data-binary @"$SMOKE_DIR/php8.cnf" "http://$api/v1/solve?policy=frequency" \
	> "$SMOKE_DIR/r2.json" &
c2=$!
wait "$c1" "$c2"
grep -q '"status":"UNSAT"' "$SMOKE_DIR/r1.json" || {
	echo "serve smoke: FAIL — php-8 did not solve UNSAT: $(cat "$SMOKE_DIR/r1.json")"
	exit 1
}
grep -q '"status":"UNSAT"' "$SMOKE_DIR/r2.json" || {
	echo "serve smoke: FAIL — php-8 under ?policy=frequency did not solve UNSAT"
	exit 1
}

# Duplicate upload: identical body served from the cache with X-Cache: hit.
curl -fsS -D "$SMOKE_DIR/hdr.txt" --data-binary @"$SMOKE_DIR/php8.cnf" \
	"http://$api/v1/solve" > "$SMOKE_DIR/r3.json"
grep -qi '^x-cache: hit' "$SMOKE_DIR/hdr.txt" || {
	echo "serve smoke: FAIL — duplicate instance was not served from the cache"
	exit 1
}
cmp -s "$SMOKE_DIR/r1.json" "$SMOKE_DIR/r3.json" || {
	echo "serve smoke: FAIL — cache hit body differs from the original response"
	exit 1
}

# Queue overflow: flood 2 workers + 1 queue slot with hard *distinct*
# jobs until the admission queue sheds a request with 429. Identical
# uploads would not do: they singleflight-share the first job instead of
# queueing behind it.
for n in 10 11 13 14; do
	go run ./cmd/satgen -family pigeonhole -n "$n" > "$SMOKE_DIR/php$n.cnf"
done
shed=""
for n in 12 10 11 13 14; do
	code="$(curl -s -o /dev/null -w '%{http_code}' \
		--data-binary @"$SMOKE_DIR/php$n.cnf" "http://$api/v1/jobs?timeout=5s")"
	if [ "$code" = 429 ]; then
		shed=yes
	fi
done
if [ -z "$shed" ]; then
	echo "serve smoke: FAIL — queue overflow never returned 429"
	exit 1
fi

# The request counter on /metrics moved.
curl -fsS "http://$maddr/metrics" | awk '
	$1 ~ /^neuroselect_server_requests_total/ { sum += $2 }
	END { exit(sum > 0 ? 0 : 1) }' || {
	echo "serve smoke: FAIL — neuroselect_server_requests_total never moved"
	exit 1
}

# SIGTERM drains: an in-flight job finishes with a result, then the
# process exits 0 on its own. The flood above left the pool saturated,
# so retry the submit until the 5s-bounded php-12 jobs free a slot.
jid=""
i=0
while [ -z "$jid" ] && [ "$i" -lt 300 ]; do
	jid="$(curl -s --data-binary @"$SMOKE_DIR/php7.cnf" \
		"http://$api/v1/jobs?policy=size" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
	[ -n "$jid" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$jid" ]; then
	echo "serve smoke: FAIL — async submit never admitted after the flood"
	exit 1
fi
kill -TERM "$SERVE_PID"
done_status=""
i=0
while [ -z "$done_status" ] && [ "$i" -lt 200 ]; do
	poll="$(curl -s "http://$api/v1/jobs/$jid" 2>/dev/null || true)"
	case "$poll" in
	*'"status":"done"'*) done_status="$poll" ;;
	*) sleep 0.1 ;;
	esac
	i=$((i + 1))
done
case "$done_status" in
*'"status":"UNSAT"'*) : ;;
*)
	echo "serve smoke: FAIL — in-flight job dropped during drain: $done_status"
	exit 1
	;;
esac
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
if [ "$rc" != 0 ]; then
	echo "serve smoke: FAIL — server exited $rc after drain"
	exit 1
fi
echo "serve smoke: concurrent solves, cache hit, 429 shedding, SIGTERM drain all ok"

echo "== trained-model smoke (train, predict, serve -model decide alike)"
# The model file is the selector artifact: train writes the calibrated
# threshold into it, and predict and a server started with -model must
# make the same choice from it, with inference actually running for php-7,
# which reaches a reduction. neuroselect solve -model and the served auto
# solve share one selection path, so they run one search: equal
# propagation counts. The served choice waits for a solve's first
# reduction, so a formula decided before one must answer no-reduction and
# leave the inference counter where it was.
go build -o "$SMOKE_DIR/neuroselect" ./cmd/neuroselect
"$SMOKE_DIR/neuroselect" train -scale quick -out "$SMOKE_DIR/model.json" 2> "$SMOKE_DIR/train.txt"
th="$(sed -n 's/.*"threshold":\([0-9.eE+-]*\).*/\1/p' "$SMOKE_DIR/model.json")"
if [ -z "$th" ]; then
	echo "model smoke: FAIL — trained model file carries no threshold"
	exit 1
fi
want="$("$SMOKE_DIR/neuroselect" predict -model "$SMOKE_DIR/model.json" "$SMOKE_DIR/php7.cnf" |
	sed -n 's/.*-> policy "\([a-z]*\)".*/\1/p')"
if [ -z "$want" ]; then
	echo "model smoke: FAIL — predict named no policy for php-7"
	exit 1
fi
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 1 -metrics-addr 127.0.0.1:0 \
	-model "$SMOKE_DIR/model.json" > "$SMOKE_DIR/serve_model.txt" 2>&1 &
SERVE_PID=$!
api=""
i=0
while [ -z "$api" ] && [ "$i" -lt 100 ]; do
	api="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/serve_model.txt" 2>/dev/null)"
	[ -n "$api" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api" ]; then
	echo "model smoke: FAIL — server never announced its listen address"
	exit 1
fi
grep -qxF "selector model loaded from $SMOKE_DIR/model.json (threshold $th)" "$SMOKE_DIR/serve_model.txt" || {
	echo "model smoke: FAIL — load line does not name threshold $th: $(head -1 "$SMOKE_DIR/serve_model.txt")"
	exit 1
}
curl -fsS --data-binary @"$SMOKE_DIR/php7.cnf" "http://$api/v1/solve?policy=auto" > "$SMOKE_DIR/auto7.json"
pol="$(grep -o '"policy":{[^}]*}' "$SMOKE_DIR/auto7.json")"
case "$pol" in
*'"fallback"'*)
	echo "model smoke: FAIL — served choice fell back: $pol"
	exit 1
	;;
'"policy":{"name":"'"$want"'"'*) : ;;
*)
	echo "model smoke: FAIL — served $pol, predict chose $want"
	exit 1
	;;
esac
served="$(grep -o '"propagations":[0-9]*' "$SMOKE_DIR/auto7.json" | head -1 | cut -d: -f2)"
cli="$("$SMOKE_DIR/neuroselect" solve -model "$SMOKE_DIR/model.json" "$SMOKE_DIR/php7.cnf" |
	sed -n 's/^c propagations=\([0-9]*\) .*/\1/p')"
if [ -z "$served" ] || [ "$cli" != "$served" ]; then
	echo "model smoke: FAIL — neuroselect solve -model propagated $cli times, the served auto solve $served"
	exit 1
fi
maddr="$(sed -n 's/^metrics listening on //p' "$SMOKE_DIR/serve_model.txt")"
# inferences: every neuroselect_server_inference_total sample, summed.
inferences() {
	curl -fsS "http://$maddr/metrics" | awk '
		$1 ~ /^neuroselect_server_inference_total/ { n += $2 }
		END { print n + 0 }'
}
before="$(inferences)"
printf 'p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n' > "$SMOKE_DIR/tiny.cnf"
pol="$(curl -fsS --data-binary @"$SMOKE_DIR/tiny.cnf" "http://$api/v1/solve?policy=auto" |
	grep -o '"policy":{[^}]*}')"
case "$pol" in
*'"fallback":"no-reduction"'*) : ;;
*)
	echo "model smoke: FAIL — a formula solved before any reduction answered $pol"
	exit 1
	;;
esac
after="$(inferences)"
if [ "$before" -lt 1 ] || [ "$after" != "$before" ]; then
	echo "model smoke: FAIL — inference_total read $before after php-7 and $after after a no-reduction solve"
	exit 1
fi
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
if [ "$rc" != 0 ]; then
	echo "model smoke: FAIL — server exited $rc after drain"
	exit 1
fi
echo "model smoke: threshold $th in the file, served and predicted policy $want; CLI and served solve both propagated $served times; no-reduction skipped inference"

echo "== incremental-session smoke (warm steps match cold solves, idle TTL expiry)"
# An implication chain 1->2->3->4: under the assumptions below every
# variable is forced, so a warm incremental step and a cold solve of the
# equivalent formula (added clauses + assumptions as root units) must
# agree not just on status but literal-for-literal on the model.
printf 'p cnf 4 3\n-1 2 0\n-2 3 0\n-3 4 0\n' > "$SMOKE_DIR/chain.cnf"
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 2 -session-ttl 2s \
	> "$SMOKE_DIR/serve_sess.txt" 2>&1 &
SERVE_PID=$!
api=""
i=0
while [ -z "$api" ] && [ "$i" -lt 100 ]; do
	api="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/serve_sess.txt" 2>/dev/null)"
	[ -n "$api" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api" ]; then
	echo "session smoke: FAIL — server never announced its listen address"
	exit 1
fi
sid="$(curl -s --data-binary @"$SMOKE_DIR/chain.cnf" "http://$api/v1/sessions" |
	sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$sid" ]; then
	echo "session smoke: FAIL — session create returned no id"
	exit 1
fi
# answer_of FILE: the (status, model) pair a solve response carries.
answer_of() {
	printf '%s %s\n' \
		"$(grep -o '"status":"[A-Z]*"' "$1")" \
		"$(grep -o '"model":\[[^]]*\]' "$1")"
}
# Three incremental steps: assumptions only, then a permanent added
# clause, then another. Each cold reference is the chain plus every
# clause added so far plus this step's assumptions as unit clauses.
step() { # step N json cold_extra_units...
	n="$1"
	body="$2"
	shift 2
	curl -s -d "$body" "http://$api/v1/sessions/$sid/solve" \
		> "$SMOKE_DIR/warm$n.json"
	{
		printf 'p cnf 4 %d\n-1 2 0\n-2 3 0\n-3 4 0\n' $((3 + $#))
		for u in "$@"; do printf '%s 0\n' "$u"; done
	} > "$SMOKE_DIR/cold$n.cnf"
	curl -s --data-binary @"$SMOKE_DIR/cold$n.cnf" "http://$api/v1/solve" \
		> "$SMOKE_DIR/cold$n.json"
	warm="$(answer_of "$SMOKE_DIR/warm$n.json")"
	cold="$(answer_of "$SMOKE_DIR/cold$n.json")"
	if [ -z "$warm" ] || [ "$warm" != "$cold" ]; then
		echo "session smoke: FAIL — step $n warm answer ($warm) != cold ($cold)"
		exit 1
	fi
}
step 1 '{"assumptions":[1]}' 1
step 2 '{"add":[[-1]],"assumptions":[-2,-3,-4]}' -1 -2 -3 -4
step 3 '{"add":[[3]],"assumptions":[-2]}' -1 3 -2
# Idle TTL: the reaper must expire the session. Poll the info endpoint —
# it reports idle time without refreshing the TTL, so polling cannot keep
# the session alive — then confirm a solve on the expired id is 404 too.
gone=""
i=0
while [ -z "$gone" ] && [ "$i" -lt 100 ]; do
	code="$(curl -s -o /dev/null -w '%{http_code}' "http://$api/v1/sessions/$sid")"
	if [ "$code" = 404 ]; then
		gone=yes
	else
		sleep 0.1
	fi
	i=$((i + 1))
done
if [ -z "$gone" ]; then
	echo "session smoke: FAIL — session never expired after the 2s idle TTL"
	exit 1
fi
code="$(curl -s -o /dev/null -w '%{http_code}' -d '{}' \
	"http://$api/v1/sessions/$sid/solve")"
if [ "$code" != 404 ]; then
	echo "session smoke: FAIL — solve on an expired session returned $code, want 404"
	exit 1
fi
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
if [ "$rc" != 0 ]; then
	echo "session smoke: FAIL — server exited $rc after drain"
	exit 1
fi
echo "session smoke: 3 warm steps matched cold solves, idle session expired"

echo "== SSE telemetry smoke (live event stream, done==poll, access log)"
# A hard 6s-bounded job streamed over GET /v1/jobs/{id}/events: window
# events must arrive while the solve runs, the stream must end with a
# done event whose data is byte-identical to the poll body, the stream
# counters must move on /metrics, and -log-format json must produce
# structured access lines on stderr.
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 1 \
	-metrics-addr 127.0.0.1:0 -log-format json \
	> "$SMOKE_DIR/serve_sse.txt" 2> "$SMOKE_DIR/serve_sse.log" &
SERVE_PID=$!
api=""
i=0
while [ -z "$api" ] && [ "$i" -lt 100 ]; do
	api="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/serve_sse.txt" 2>/dev/null)"
	[ -n "$api" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api" ]; then
	echo "sse smoke: FAIL — server never announced its listen address"
	exit 1
fi
maddr="$(sed -n 's/^metrics listening on //p' "$SMOKE_DIR/serve_sse.txt")"
jid="$(curl -s --data-binary @"$SMOKE_DIR/php12.cnf" \
	"http://$api/v1/jobs?timeout=6s" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$jid" ]; then
	echo "sse smoke: FAIL — async submit was not acknowledged"
	exit 1
fi
curl -sN -m 60 "http://$api/v1/jobs/$jid/events" > "$SMOKE_DIR/sse.txt" &
CURL_PID=$!
# Live mid-solve events: a window rollup must stream in well before the
# job's 6s bound expires.
live=""
i=0
while [ -z "$live" ] && [ "$i" -lt 50 ]; do
	if grep -q '^event: window' "$SMOKE_DIR/sse.txt" 2>/dev/null; then
		live=yes
	else
		sleep 0.1
	fi
	i=$((i + 1))
done
if [ -z "$live" ]; then
	echo "sse smoke: FAIL — no window event streamed while the job ran"
	exit 1
fi
rc=0
wait "$CURL_PID" || rc=$?
if [ "$rc" != 0 ]; then
	echo "sse smoke: FAIL — event stream did not end cleanly (curl exited $rc)"
	exit 1
fi
# The final done event's data is the poll body, byte for byte (both
# command substitutions strip the same trailing newline).
done_data="$(sed -n '/^event: done$/{n;s/^data: //p;}' "$SMOKE_DIR/sse.txt")"
poll_body="$(curl -s "http://$api/v1/jobs/$jid")"
if [ -z "$done_data" ]; then
	echo "sse smoke: FAIL — stream ended without a done event"
	exit 1
fi
if [ "$done_data" != "$poll_body" ]; then
	echo "sse smoke: FAIL — done event diverges from poll body"
	echo " done: $done_data"
	echo " poll: $poll_body"
	exit 1
fi
curl -fsS "http://$maddr/metrics" | awk '
	$1 ~ /^neuroselect_server_event_stream_events_total/ { sum += $2 }
	END { exit(sum > 0 ? 0 : 1) }' || {
	echo "sse smoke: FAIL — event_stream_events_total never moved"
	exit 1
}
if ! grep -q '"msg":"request"' "$SMOKE_DIR/serve_sse.log"; then
	echo "sse smoke: FAIL — -log-format json produced no access lines"
	exit 1
fi
if ! grep -q '"request_id":' "$SMOKE_DIR/serve_sse.log"; then
	echo "sse smoke: FAIL — access lines carry no request_id"
	exit 1
fi
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
if [ "$rc" != 0 ]; then
	echo "sse smoke: FAIL — server exited $rc after drain"
	exit 1
fi
echo "sse smoke: live window events, done==poll byte-identical, stream metrics, JSON access log all ok"

echo "== chaos smoke (kill -9 crash recovery over the job journal)"
JDIR="$SMOKE_DIR/journal"
go run ./cmd/satgen -family pigeonhole -n 9 > "$SMOKE_DIR/php9.cnf"
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 1 -journal "$JDIR" \
	> "$SMOKE_DIR/serve2.txt" 2>&1 &
SERVE_PID=$!
api=""
i=0
while [ -z "$api" ] && [ "$i" -lt 100 ]; do
	api="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/serve2.txt" 2>/dev/null)"
	[ -n "$api" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api" ]; then
	echo "chaos smoke: FAIL — journaled server never announced its listen address"
	exit 1
fi
# An 8s-bounded hard instance: long enough to be mid-solve when killed,
# bounded enough that the replayed attempt finishes promptly.
jid="$(curl -s --data-binary @"$SMOKE_DIR/php9.cnf" \
	"http://$api/v1/jobs?timeout=8s" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$jid" ]; then
	echo "chaos smoke: FAIL — async submit was not acknowledged"
	exit 1
fi
running=""
i=0
while [ -z "$running" ] && [ "$i" -lt 100 ]; do
	case "$(curl -s "http://$api/v1/jobs/$jid")" in
	*'"status":"running"'* | *'"status":"done"'*) running=yes ;;
	*) sleep 0.1 ;;
	esac
	i=$((i + 1))
done
if [ -z "$running" ]; then
	echo "chaos smoke: FAIL — journaled job never started running"
	exit 1
fi
# Crash: no drain, no journal close — the acknowledged job must survive.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 1 -journal "$JDIR" \
	> "$SMOKE_DIR/serve3.txt" 2>&1 &
SERVE_PID=$!
api=""
i=0
while [ -z "$api" ] && [ "$i" -lt 100 ]; do
	api="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/serve3.txt" 2>/dev/null)"
	[ -n "$api" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api" ]; then
	echo "chaos smoke: FAIL — restarted server never announced its listen address"
	exit 1
fi
done_poll=""
i=0
while [ -z "$done_poll" ] && [ "$i" -lt 200 ]; do
	poll="$(curl -s "http://$api/v1/jobs/$jid" 2>/dev/null || true)"
	case "$poll" in
	*'"status":"done"'*) done_poll="$poll" ;;
	*) sleep 0.1 ;;
	esac
	i=$((i + 1))
done
case "$done_poll" in
*'"result"'*) : ;;
*)
	echo "chaos smoke: FAIL — replayed job $jid never completed: $done_poll"
	exit 1
	;;
esac
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
if [ "$rc" != 0 ]; then
	echo "chaos smoke: FAIL — restarted server exited $rc after drain"
	exit 1
fi
# A clean drain compacts the journal down to nothing pending.
if grep -q '"type":"submit"' "$JDIR/journal.jsonl" 2>/dev/null; then
	echo "chaos smoke: FAIL — journal still holds pending submits after drain"
	exit 1
fi
echo "chaos smoke: kill -9 mid-solve, replay after restart, clean compaction all ok"

echo "== cluster smoke (coordinator + 2 replicas: stickiness, cache locality, failover, drain)"
# A 3-process local cluster: two backend-mode replicas and a coordinator
# consistent-hashing formulas across them. The same upload twice must
# route to the same replica (X-Backend equal) with the second answer a
# cache hit served through the proxy; killing that replica must reroute
# the third identical upload to the survivor (fresh miss, still UNSAT);
# SIGTERM must drain the whole topology with exit 0 everywhere. The
# repeat is byte-identical, so the coordinator and the owning replica must
# both key it from their memos (each tier's hit counter moves).
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 2 -backend-name r1 \
	-metrics-addr 127.0.0.1:0 > "$SMOKE_DIR/repl1.txt" 2>&1 &
R1_PID=$!
"$SMOKE_DIR/neuroselect-serve" -addr 127.0.0.1:0 -workers 2 -backend-name r2 \
	-metrics-addr 127.0.0.1:0 > "$SMOKE_DIR/repl2.txt" 2>&1 &
R2_PID=$!
api1=""
api2=""
i=0
while { [ -z "$api1" ] || [ -z "$api2" ]; } && [ "$i" -lt 100 ]; do
	api1="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/repl1.txt" 2>/dev/null)"
	api2="$(sed -n 's/^solving API listening on //p' "$SMOKE_DIR/repl2.txt" 2>/dev/null)"
	{ [ -n "$api1" ] && [ -n "$api2" ]; } || sleep 0.1
	i=$((i + 1))
done
if [ -z "$api1" ] || [ -z "$api2" ]; then
	echo "cluster smoke: FAIL — replicas never announced their listen addresses"
	exit 1
fi
"$SMOKE_DIR/neuroselect-serve" -coordinator \
	-replicas "http://$api1,http://$api2" -addr 127.0.0.1:0 \
	-probe-interval 250ms -metrics-addr 127.0.0.1:0 \
	> "$SMOKE_DIR/coord.txt" 2>&1 &
COORD_PID=$!
capi=""
i=0
while [ -z "$capi" ] && [ "$i" -lt 100 ]; do
	capi="$(sed -n 's/^cluster coordinator listening on //p' "$SMOKE_DIR/coord.txt" 2>/dev/null |
		sed 's/ (.*//')"
	[ -n "$capi" ] || sleep 0.1
	i=$((i + 1))
done
if [ -z "$capi" ]; then
	echo "cluster smoke: FAIL — coordinator never announced its listen address"
	exit 1
fi
cmaddr="$(sed -n 's/^metrics listening on //p' "$SMOKE_DIR/coord.txt")"

# Same formula twice through the coordinator: sticky backend, cache hit.
curl -fsS -D "$SMOKE_DIR/ch1.txt" --data-binary @"$SMOKE_DIR/php8.cnf" \
	"http://$capi/v1/solve" > "$SMOKE_DIR/cr1.json"
curl -fsS -D "$SMOKE_DIR/ch2.txt" --data-binary @"$SMOKE_DIR/php8.cnf" \
	"http://$capi/v1/solve" > "$SMOKE_DIR/cr2.json"
be1="$(sed -n 's/^[Xx]-[Bb]ackend: *//p' "$SMOKE_DIR/ch1.txt" | tr -d '\r')"
be2="$(sed -n 's/^[Xx]-[Bb]ackend: *//p' "$SMOKE_DIR/ch2.txt" | tr -d '\r')"
if [ -z "$be1" ] || [ "$be1" != "$be2" ]; then
	echo "cluster smoke: FAIL — identical uploads routed to '$be1' then '$be2', want one sticky backend"
	exit 1
fi
grep -q '"status":"UNSAT"' "$SMOKE_DIR/cr1.json" || {
	echo "cluster smoke: FAIL — php-8 through the coordinator did not solve UNSAT"
	exit 1
}
grep -qi '^x-cache: hit' "$SMOKE_DIR/ch2.txt" || {
	echo "cluster smoke: FAIL — second identical upload was not a cache hit through the coordinator"
	exit 1
}
cmp -s "$SMOKE_DIR/cr1.json" "$SMOKE_DIR/cr2.json" || {
	echo "cluster smoke: FAIL — cache hit body differs from the original through the coordinator"
	exit 1
}
# memo_hits ADDR METRIC: the hit count of one tier's upload-key memo.
memo_hits() {
	curl -fsS "http://$1/metrics" | awk -v m="$2" '
		$1 == m "{event=\"hit\"}" { n = $2 }
		END { print n + 0 }'
}
case "$be1" in
r1) rmaddr="$(sed -n 's/^metrics listening on //p' "$SMOKE_DIR/repl1.txt")" ;;
*) rmaddr="$(sed -n 's/^metrics listening on //p' "$SMOKE_DIR/repl2.txt")" ;;
esac
if [ "$(memo_hits "$cmaddr" neuroselect_cluster_route_keys_total)" -lt 1 ]; then
	echo "cluster smoke: FAIL — the coordinator did not key the repeated upload from its memo"
	exit 1
fi
if [ "$(memo_hits "$rmaddr" neuroselect_server_upload_keys_total)" -lt 1 ]; then
	echo "cluster smoke: FAIL — owning replica $be1 did not key the repeated upload from its memo"
	exit 1
fi

# Kill the owning replica (no drain — a crash): the next identical upload
# must fail over to the survivor and solve fresh.
case "$be1" in
r1) kill -9 "$R1_PID" && wait "$R1_PID" 2>/dev/null || true
	R1_PID="" ;;
r2) kill -9 "$R2_PID" && wait "$R2_PID" 2>/dev/null || true
	R2_PID="" ;;
*)
	echo "cluster smoke: FAIL — unexpected X-Backend '$be1'"
	exit 1
	;;
esac
curl -fsS -D "$SMOKE_DIR/ch3.txt" --data-binary @"$SMOKE_DIR/php8.cnf" \
	"http://$capi/v1/solve" > "$SMOKE_DIR/cr3.json"
be3="$(sed -n 's/^[Xx]-[Bb]ackend: *//p' "$SMOKE_DIR/ch3.txt" | tr -d '\r')"
if [ -z "$be3" ] || [ "$be3" = "$be1" ]; then
	echo "cluster smoke: FAIL — after killing $be1 the request still routed to '$be3'"
	exit 1
fi
grep -qi '^x-cache: miss' "$SMOKE_DIR/ch3.txt" || {
	echo "cluster smoke: FAIL — failover request was not a fresh miss on the survivor"
	exit 1
}
grep -q '"status":"UNSAT"' "$SMOKE_DIR/cr3.json" || {
	echo "cluster smoke: FAIL — failover solve did not answer UNSAT"
	exit 1
}

# Routing is observable on the coordinator's own metrics plane.
curl -fsS "http://$cmaddr/metrics" | awk '
	$1 ~ /^neuroselect_cluster_routed_total/ { sum += $2 }
	END { exit(sum > 0 ? 0 : 1) }' || {
	echo "cluster smoke: FAIL — neuroselect_cluster_routed_total never moved"
	exit 1
}

# SIGTERM drain of the whole topology: coordinator and survivor exit 0.
kill -TERM "$COORD_PID"
rc=0
wait "$COORD_PID" || rc=$?
COORD_PID=""
if [ "$rc" != 0 ]; then
	echo "cluster smoke: FAIL — coordinator exited $rc after drain"
	exit 1
fi
surv_pid="$R1_PID$R2_PID" # exactly one survivor remains
kill -TERM "$surv_pid"
rc=0
wait "$surv_pid" || rc=$?
R1_PID=""
R2_PID=""
if [ "$rc" != 0 ]; then
	echo "cluster smoke: FAIL — surviving replica exited $rc after drain"
	exit 1
fi
echo "cluster smoke: sticky routing, proxied cache hit keyed from both memos, failover on crash, topology drain all ok"

echo "== benchmark regression gate (BENCH_solver.json delta)"
if [ "${BENCH_DELTA_SKIP:-0}" = 1 ]; then
	echo "bench delta gate: skipped (BENCH_DELTA_SKIP=1)"
else
	# Re-measure with the same benchtime and sample count the baseline was
	# recorded at — comparing across benchtimes mistakes amortization
	# effects for regressions, and both sides must use the same min-of-N
	# estimator (see bench.sh) for the ratios to mean anything.
	base_benchtime="$(sed -n 's/.*"benchtime": "\([^"]*\)".*/\1/p' BENCH_solver.json)"
	base_count="$(sed -n 's/.*"count": \([0-9]*\).*/\1/p' BENCH_solver.json)"
	BENCH_OUT="$SMOKE_DIR/bench_now.json" BENCH_COUNT="${base_count:-3}" \
		./scripts/bench.sh "${base_benchtime:-1s}" > /dev/null
	extract_bench() {
		sed -n 's/.*"name": "\([^"]*\)".*"ns_per_op": \([0-9.e+]*\).*/\1 \2/p' "$1"
	}
	extract_bench BENCH_solver.json > "$SMOKE_DIR/bench_base.txt"
	extract_bench "$SMOKE_DIR/bench_now.json" > "$SMOKE_DIR/bench_cur.txt"
	# Gate only benchmarks whose baseline is >= 100µs — below that, scheduler
	# noise swamps a 10% threshold. The Portfolio* family is recorded in
	# BENCH_solver.json for cross-PR trajectory but excluded from the gate:
	# those are whole-solve multi-worker wall-clock measurements, and the
	# free-running mode's time-to-answer depends on which diversified worker
	# the scheduler lets finish first — ±50% run-to-run swings are normal
	# and carry no regression signal. Ratios are normalized by the median ratio
	# across all gated benchmarks: when the whole machine is slower (the gate
	# runs right after the race suite and smokes), every benchmark shifts by
	# roughly the same factor and the median absorbs it, while a regression in
	# one code path still sticks out relative to the rest. A median ratio over
	# medcap is an across-the-board slowdown no load story explains, and fails
	# outright. BENCH_solver.json is the committed baseline; regenerate it with
	# ./scripts/bench.sh when a slowdown is intentional and explained.
	awk -v floor=100000 -v tol=1.10 -v medcap=1.50 '
		NR == FNR { base[$1] = $2; next }
		($1 in base) && base[$1] >= floor && $1 !~ /^Portfolio/ {
			gated++
			name[gated] = $1
			ratio[gated] = $2 / base[$1]
			cur[gated] = $2
		}
		END {
			if (gated == 0) { print "bench delta gate: no gated benchmarks matched the baseline"; exit 1 }
			for (i = 1; i <= gated; i++) sorted[i] = ratio[i]
			for (i = 2; i <= gated; i++)
				for (j = i; j > 1 && sorted[j-1] > sorted[j]; j--) {
					t = sorted[j]; sorted[j] = sorted[j-1]; sorted[j-1] = t
				}
			med = (gated % 2) ? sorted[(gated + 1) / 2] \
				: (sorted[gated / 2] + sorted[gated / 2 + 1]) / 2
			if (med > medcap) {
				printf "bench delta gate: FAIL — median slowdown +%.1f%% exceeds %.0f%% cap\n", \
					100 * (med - 1), 100 * (medcap - 1)
				fail = 1
			}
			norm = (med > 1) ? med : 1   # never relax the gate on a fast run
			for (i = 1; i <= gated; i++)
				if (ratio[i] > norm * tol) {
					printf "bench delta gate: FAIL — %s regressed %.0f -> %.0f ns/op (+%.1f%% vs +%.1f%% median)\n", \
						name[i], base[name[i]], cur[i], 100 * (ratio[i] - 1), 100 * (med - 1)
					fail = 1
				}
			if (fail) exit 1
			printf "bench delta gate: %d benchmarks within %.0f%% of baseline (median shift %+.1f%%)\n", \
				gated, 100 * (tol - 1), 100 * (med - 1)
		}' "$SMOKE_DIR/bench_base.txt" "$SMOKE_DIR/bench_cur.txt"
fi

echo "== coverage (experiments + sweep engine + portfolio + solver)"
# cover_gate PROFILE PKG FLOOR fails unless PKG's statement coverage in
# PROFILE reaches FLOOR percent.
cover_gate() {
	awk -F: -v pkg="$2" -v floor="$3" '
		# profile lines: path:start,end numStmts hitCount
		index($1, pkg "/") == 1 {
			split($2, f, " ")
			total += f[2]
			if (f[3] > 0) covered += f[2]
		}
		END {
			if (total == 0) { printf "coverage gate: no %s statements in profile\n", pkg; exit 1 }
			pct = 100 * covered / total
			printf "%s statement coverage: %.1f%% (floor %.1f%%)\n", pkg, pct, floor
			if (pct < floor) { printf "coverage gate: FAIL — %s below floor\n", pkg; exit 1 }
		}' "$1"
}
COVER_PROFILE="$(mktemp)"
go test -count=1 -covermode=atomic -coverprofile="$COVER_PROFILE" \
	./internal/experiments ./internal/sweep ./internal/metrics \
	./internal/portfolio
cover_gate "$COVER_PROFILE" neuroselect/internal/experiments "$EXPERIMENTS_COVER_FLOOR"
cover_gate "$COVER_PROFILE" neuroselect/internal/portfolio "$PORTFOLIO_COVER_FLOOR"
# The solver is single-threaded; set mode keeps its instrumented search
# loops an order of magnitude faster than atomic counting would.
go test -count=1 -covermode=set -coverprofile="$COVER_PROFILE" ./internal/solver
cover_gate "$COVER_PROFILE" neuroselect/internal/solver "$SOLVER_COVER_FLOOR"

echo "check: all gates passed"
