#!/bin/sh
# CI gate: formatting, vet, build, and the race-enabled test suite.
# -short skips the exhaustive bit-flip campaigns (see campaign tests and
# bench_test.go); run `go test ./...` for the full tier-1 suite.
set -eu
cd "$(dirname "$0")"

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "ci: gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...
go build ./...
go test -race -short ./...

# Observability gates: hammer the metrics registry, tracer, profiler and
# trace analytics under the race detector (this includes
# TestServeDuringShardedCampaign, which scrapes the live /metrics
# endpoints while a worker-sharded campaign flushes its observer shards)
# and smoke-test the -serve HTTP surface end to end.
go test -race ./internal/obs/... ./internal/campaign/ ./internal/report/
go test -run TestMetricsEndpoint ./internal/obs/

# Parallel-engine gates under the race detector: a sharded campaign slice
# with an attached observer (worker shards, progress ticks, accounting)
# and the sharded-scan observer merge. The full-grid golden-equivalence
# tests stay in the non-short suite; these small slices keep CI fast.
go test -race -run 'TestParallelObserverAccounting|TestParallelMoreWorkersThanUnits|TestRunNilObs' ./internal/campaign/
go test -race -run 'TestObsShardFlushMatchesSerial|TestGridBand' ./internal/glitcher/
go run ./cmd/glitchemu -model and -max-flips 2 -workers 4 >/dev/null

# Crash-safe run-controller gates: the runctl suite and a campaign
# kill/resume + panic-quarantine slice under the race detector.
go test -race ./internal/runctl/
go test -race -short -run 'TestResumeByteIdentical|TestPanicQuarantine' ./internal/campaign/

# End-to-end kill/resume smoke: a deadline-interrupted campaign must exit
# with status 3, publish no results file, and leave a resumable
# checkpoint; the resumed run must complete and write results
# byte-identical to an uninterrupted run's. The binary is built once so
# the exit status is the campaign's own, not `go run` relaying it. A
# checkpointed run takes about 250 ms on a 2-vCPU host, so the deadline
# sits well below that: a run that beats it has nothing to resume.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/glitchemu" ./cmd/glitchemu
"$tmp/glitchemu" -workers 2 -out "$tmp/golden.txt"
status=0
"$tmp/glitchemu" -workers 2 -run-dir "$tmp/run" -deadline 100ms \
	-out "$tmp/partial.txt" 2>/dev/null || status=$?
if [ "$status" -ne 3 ]; then
	echo "ci: deadline-interrupted run exited $status, want 3" >&2
	exit 1
fi
if [ -e "$tmp/partial.txt" ]; then
	echo "ci: interrupted run must not publish a results file" >&2
	exit 1
fi
if [ ! -s "$tmp/run/manifest.json" ] || [ ! -e "$tmp/run/checkpoint.jsonl" ]; then
	echo "ci: interrupted run left no checkpoint in $tmp/run" >&2
	exit 1
fi
"$tmp/glitchemu" -workers 2 -run-dir "$tmp/run" -resume -out "$tmp/resumed.txt"
cmp "$tmp/golden.txt" "$tmp/resumed.txt"

# Trigger-point replay gate: a seeded Figure 2 campaign slice run with the
# default snapshot/replay engine must render byte-identically to the same
# campaign re-simulating the prologue from reset on every execution
# (-full-run), serial and sharded. This is the end-to-end proof that the
# hot-path overhaul changed no observable number.
"$tmp/glitchemu" -max-flips 3 -out "$tmp/replay.txt"
"$tmp/glitchemu" -max-flips 3 -full-run -out "$tmp/fullrun.txt"
cmp "$tmp/replay.txt" "$tmp/fullrun.txt"
"$tmp/glitchemu" -max-flips 3 -workers 4 -out "$tmp/replay_par.txt"
cmp "$tmp/replay.txt" "$tmp/replay_par.txt"

# Results lockfile: every committed results/ file must be exactly what its
# CLI prints today (the regeneration commands are in EXPERIMENTS.md), so a
# change that moves a reproduced number must update results/ with it.
go build -o "$tmp/glitchscan" ./cmd/glitchscan
go build -o "$tmp/glitcheval" ./cmd/glitcheval
cmp "$tmp/golden.txt" results/figure2.txt
"$tmp/glitchemu" -model and -pad-udf -workers 2 -out "$tmp/figure2_padudf.txt"
cmp "$tmp/figure2_padudf.txt" results/figure2_padudf.txt
"$tmp/glitchscan" -workers 2 -out "$tmp/section5.txt"
cmp "$tmp/section5.txt" results/section5.txt
# The scans and the search must print the same bytes when every attempt
# re-simulates the boot prologue instead of replaying the trigger-point
# snapshot.
"$tmp/glitchscan" -workers 2 -full-run -out "$tmp/section5_fullrun.txt"
cmp "$tmp/section5_fullrun.txt" results/section5.txt
"$tmp/glitcheval" -workers 2 -out "$tmp/section7.txt"
cmp "$tmp/section7.txt" results/section7.txt

# Differential-fuzzing gates. First sanity-check the committed seed corpora
# (directory names must be Fuzz* harnesses, every file must carry the native
# corpus header), then give each harness a short coverage-guided smoke run.
# The runs are serialized: this host has two vCPUs and each fuzz run already
# forks GOMAXPROCS workers.
corpus=internal/difftest/testdata/fuzz
for dir in "$corpus"/*/; do
	name=$(basename "$dir")
	case "$name" in
	Fuzz*) ;;
	*)
		echo "ci: corpus dir $name does not name a fuzz harness" >&2
		exit 1
		;;
	esac
	if ! grep -q "func $name(" internal/difftest/fuzz_test.go; then
		echo "ci: corpus dir $name has no matching harness in fuzz_test.go" >&2
		exit 1
	fi
	for f in "$dir"*; do
		if [ "$(head -n 1 "$f")" != "go test fuzz v1" ]; then
			echo "ci: corpus file $f lacks the 'go test fuzz v1' header" >&2
			exit 1
		fi
	done
done
for fz in FuzzEmuVsPipeline FuzzISARoundTrip FuzzDecode FuzzDefenseTransparency FuzzRSCodes; do
	go test ./internal/difftest/ -run '^$' -fuzz "^${fz}\$" -fuzztime 5s >/dev/null
done

# Corpus-lint gates: a cold fleet lint of the committed 200-unit corpus
# must reproduce the expected per-rule totals, a warm re-lint must be
# all-hits and byte-identical to the cold report, and a sharded warm lint
# must match too. The stats line (stderr) is machine-parsed for the
# hit-ratio assertion; the report (stdout) stays pure JSON.
go build -o "$tmp/glitchlint" ./cmd/glitchlint
units=internal/analyze/corpus/testdata/units
"$tmp/glitchlint" -corpus "$units" -sensitive state -fail-on none \
	-cache "$tmp/lint.cache" -json >"$tmp/lint_cold.json" 2>"$tmp/lint_cold.err"
for want in '"units": 200' '"builds": 1600' '"failed_builds": 0' \
	'"unremoved": 0' '"GL001": 4795' '"GL006": 9590' '"GL007": 8000'; do
	if ! grep -qF "$want" "$tmp/lint_cold.json"; then
		echo "ci: corpus lint totals missing $want" >&2
		exit 1
	fi
done
"$tmp/glitchlint" -corpus "$units" -sensitive state -fail-on none \
	-cache "$tmp/lint.cache" -json >"$tmp/lint_warm.json" 2>"$tmp/lint_warm.err"
cmp "$tmp/lint_cold.json" "$tmp/lint_warm.json"
hits=$(sed -n 's/.*cache_hits=\([0-9]*\).*/\1/p' "$tmp/lint_warm.err")
if [ "$hits" -lt 180 ]; then
	echo "ci: warm corpus lint hit only $hits/200 cached units (< 90%)" >&2
	exit 1
fi
"$tmp/glitchlint" -corpus "$units" -sensitive state -fail-on none \
	-cache "$tmp/lint.cache" -workers 4 -json >"$tmp/lint_par.json" 2>/dev/null
cmp "$tmp/lint_cold.json" "$tmp/lint_par.json"

# Benchmark-regression gate: the committed 2x-slowdown fixture must fail
# the glitchtrace bench gate, and a fresh run replaying the fixture
# baseline's own minimum must pass. Both are pure-data contracts,
# independent of host speed (the committed BENCH_*.json baselines
# self-check the same way in TestCommittedBaselinesSelfConsistent).
go build -o "$tmp/glitchtrace" ./cmd/glitchtrace
fixtures=internal/obs/benchdiff/testdata
if "$tmp/glitchtrace" bench -baseline "$fixtures/baseline.json" \
	"$fixtures/slowdown_2x.txt" >/dev/null 2>&1; then
	echo "ci: benchdiff gate accepted the 2x slowdown fixture" >&2
	exit 1
fi
printf 'BenchmarkCampaignBare 100 34200 ns/op\nBenchmarkCampaignProfiled 100 35950 ns/op\n' \
	>"$tmp/steady.txt"
"$tmp/glitchtrace" bench -baseline "$fixtures/baseline.json" "$tmp/steady.txt" >/dev/null

# Trace-analytics end-to-end smoke: a tiny fully-sampled campaign's
# trace must load and roll up to exactly its execution count (AND k=0..2
# is 1918 executions including controls), and the critical-path and
# failure views must render.
"$tmp/glitchemu" -model and -max-flips 2 -trace "$tmp/trace.jsonl" \
	-trace-sample 1 >/dev/null
"$tmp/glitchtrace" rollup "$tmp/trace.jsonl" >"$tmp/rollup.txt"
if ! grep -Eq 'event +campaign\.exec +1918$' "$tmp/rollup.txt"; then
	echo "ci: trace rollup lost executions, want 1918:" >&2
	cat "$tmp/rollup.txt" >&2
	exit 1
fi
"$tmp/glitchtrace" critical "$tmp/trace.jsonl" >/dev/null
"$tmp/glitchtrace" failures "$tmp/trace.jsonl" >/dev/null

# glitchd serving gates. First the in-process load and crash/resume
# harnesses under the race detector, full-size (their short variants
# already ran in the suite above): the hammer floods a tiny admission
# queue with concurrent mixed submissions and asserts prompt 429s on
# queue-full, a 100% cache-hit ratio on the second wave, and consistent
# /metrics and /healthz mid-flight.
go test -race -run 'TestGlitchdHammer|TestDaemonCrashResumeByteIdentical' \
	./internal/serve/

# Then the daemon end to end over real HTTP: a served campaign result
# must be byte-identical to the glitchemu CLI's -out file, and an
# identical resubmission must be a cache hit.
go build -o "$tmp/glitchd" ./cmd/glitchd
"$tmp/glitchemu" -model and -max-flips 2 -out "$tmp/cli_campaign.txt" >/dev/null
"$tmp/glitchd" -addr 127.0.0.1:0 -state "$tmp/glitchd-state" 2>"$tmp/glitchd.log" &
glitchd_pid=$!
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's|^glitchd: serving on http://\([^ ]*\).*|\1|p' "$tmp/glitchd.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "ci: glitchd never announced its address:" >&2
	cat "$tmp/glitchd.log" >&2
	exit 1
fi
job=$(curl -sf -X POST -d '{"kind":"campaign","model":"and","max_flips":2}' \
	"http://$addr/v1/jobs")
id=$(printf '%s' "$job" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -n 1)
if [ -z "$id" ]; then
	echo "ci: glitchd submission returned no job id: $job" >&2
	exit 1
fi
curl -sf "http://$addr/v1/jobs/$id/result?wait=1" >"$tmp/served_campaign.txt"
cmp "$tmp/cli_campaign.txt" "$tmp/served_campaign.txt"
resubmit=$(curl -sf -X POST -d '{"kind":"campaign","model":"and","max_flips":2}' \
	"http://$addr/v1/jobs")
case "$resubmit" in
*'"cache_hit": true'*) ;;
*)
	echo "ci: identical resubmission was not a cache hit: $resubmit" >&2
	exit 1
	;;
esac
curl -sf "http://$addr/healthz" | grep -q '"ok": true'
kill -TERM "$glitchd_pid"
wait "$glitchd_pid"

# Chaos gates. Full-size deterministic fault-injection sweeps under the
# race detector (their short variants already ran in the suite above):
# the daemon crash-op and seeded mixed-fault sweeps prove restart-over-
# battered-state reaches golden bytes, and the client hammer drives
# concurrent resilient clients through a fault-injecting daemon with a
# tiny admission queue — every job must complete byte-identical.
go test -race -run 'TestDaemonCrashOpSweep|TestDaemonSeededFaultSweep' \
	./internal/serve/
go test -race -run TestClientHammerUnderChaos ./internal/serve/client/

# Chaos end-to-end: a campaign with a simulated power loss at a fixed
# filesystem op must exit with the chaos status (4), publish no results
# file, and leave a state the unfaulted resume completes from with bytes
# identical to the clean golden — the crash-consistency contract at the
# CLI surface.
status=0
"$tmp/glitchemu" -workers 2 -run-dir "$tmp/chaosrun" -chaos-crash-op 60 \
	-out "$tmp/chaos_partial.txt" 2>/dev/null || status=$?
if [ "$status" -ne 4 ]; then
	echo "ci: chaos-crashed run exited $status, want 4" >&2
	exit 1
fi
if [ -e "$tmp/chaos_partial.txt" ]; then
	echo "ci: chaos-crashed run must not publish a results file" >&2
	exit 1
fi
"$tmp/glitchemu" -workers 2 -run-dir "$tmp/chaosrun" -resume \
	-out "$tmp/chaos_resumed.txt"
cmp "$tmp/golden.txt" "$tmp/chaos_resumed.txt"

# glitchbench is its own Go module, so the suites above skip it: run its
# workload smokes, BENCHMARK.json checks and golden cross-checks.
(cd bench && go test ./...)

echo "ci: OK"
