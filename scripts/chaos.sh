#!/usr/bin/env bash
# Chaos harness for the failpoint framework and for kill-and-resume on the
# obligation cache's crash-safe disk store (--cache-dir).
#
#   scripts/chaos.sh [path/to/cmc]
#
# Needs a cmc built with -DCMC_FAILPOINTS=ON (default: build-chaos/tools/cmc).
# Three phases, all against models/afs2_composed.smv (12 obligations, all of
# which hold on a healthy run):
#
#  1. Sweep: every registered failpoint site is armed with `error` and with
#     `1in(3)`.  Each run must terminate, produce a report, and never flip
#     a verdict to Fails.  What else we can demand depends on the site:
#       - durability/telemetry sites (cache.*, trace.write) degrade: all
#         12 obligations still Hold and the run exits 0;
#       - scheduler sites fail per obligation: all 12 are reported, each
#         either Holds or the injected Error;
#       - deep sites (bdd.alloc_node, smv.elaborate) can take out the
#         scout's elaboration, collapsing the job to a single
#         <elaboration> Error obligation — so only the no-Fails and
#         termination guarantees apply.
#
#  2. Kill-and-resume: a run wedged at the scheduler.dispatch delay
#     failpoint is SIGKILLed mid-batch; its --cache-dir store must already
#     hold some but not all decided verdicts, and running the same command
#     again on that directory must serve exactly those (verdict_source
#     "cache") and finish with a report identical, verdict for verdict, to
#     a clean run's.
#
#  3. Server kill-and-resume: the same crash, but of the daemon.  A
#     `cmc serve` slowed by the dispatch delay is SIGKILLed mid-CHECK
#     (the submitting client sees the connection drop); a fresh daemon on
#     the SAME socket path and cache dir must come up (stale socket
#     handling), and resubmitting the model must yield a report identical,
#     verdict for verdict, to the clean run's — with the already-decided
#     obligations served from the store, never re-checked from scratch.
#     Then SIGTERM must drain it with exit 0.
set -u

CMC=${1:-build-chaos/tools/cmc}
MODEL=models/afs2_composed.smv
COMMON="--compose --quiet --threads 2"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-chaos.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "chaos: FAIL: $*" >&2; exit 1; }
note() { echo "chaos: $*"; }

[ -x "$CMC" ] || fail "no cmc binary at $CMC"
"$CMC" failpoints | grep -q "compiled in;" \
  || fail "$CMC was not built with -DCMC_FAILPOINTS=ON"

# "<id> <verdict>" per obligation, sorted — the report is one JSON line.
verdicts() {
  grep -o '"id": "[^"]*", "target": "[^"]*", "spec": "[^"]*", "spec_text": "[^"]*", "verdict": "[^"]*"' "$1" \
    | sed 's/.*"id": "\([^"]*\)".*"verdict": "\([^"]*\)"$/\1 \2/' | sort
}

run_cmc() { # name, cache args..., then extra cmc args
  local name=$1; shift
  timeout 180 "$CMC" check $COMMON \
    --report "$WORK/$name.json" \
    --trace "$WORK/$name.trace.jsonl" \
    "$@" "$MODEL" > "$WORK/$name.log" 2>&1
}

# ---------------------------------------------------------------------------
# Baseline: clean run, cold cache (also warms $WORK/warm.cache for the
# cache.disk_load sweeps).
# ---------------------------------------------------------------------------
run_cmc clean --cache-dir "$WORK/warm.cache" \
  || fail "clean run exited $? (log: $(cat "$WORK/clean.log"))"
verdicts "$WORK/clean.json" > "$WORK/clean.verdicts"
TOTAL=$(wc -l < "$WORK/clean.verdicts")
[ "$TOTAL" -eq 12 ] || fail "expected 12 obligations in the clean run, got $TOTAL"
[ "$(awk '$2 != "Holds"' "$WORK/clean.verdicts" | wc -l)" -eq 0 ] \
  || fail "clean run is not all-Holds"
[ -s "$WORK/warm.cache/obligations.jsonl" ] || fail "baseline left no cache store"
# One store entry per obligation: the resume phases count entries against
# obligations served.
entries=$(grep -c '"fp": ' "$WORK/warm.cache/obligations.jsonl")
[ "$entries" -eq "$TOTAL" ] || fail "expected $TOTAL store entries, got $entries"
note "baseline: $TOTAL obligations, all hold"

# ---------------------------------------------------------------------------
# Phase 1: sweep every site with `error` and `1in(3)`
# ---------------------------------------------------------------------------
SITES=$("$CMC" failpoints | sed -n 's/^  \([a-z_.]*\) .*/\1/p')
[ -n "$SITES" ] || fail "no failpoint sites listed"
echo "$SITES" | grep -q "scheduler.dispatch" || fail "site list looks wrong: $SITES"

for site in $SITES; do
  for action in error '1in(3)'; do
    name="sweep-$site-$action"
    case $site in
      cache.disk_load)
        # Needs a populated store to load; degradation must not corrupt it
        # for later iterations, but keep runs independent anyway.
        cp -r "$WORK/warm.cache" "$WORK/$name.cache"
        set -- --cache-dir "$WORK/$name.cache" ;;
      *)
        set -- --cache-dir "$WORK/$name.cache" ;;
    esac
    run_cmc "$name" "$@" --failpoint "$site=$action"
    rc=$?
    [ "$rc" -ne 124 ] || fail "$site=$action: run timed out (hang)"
    [ -s "$WORK/$name.json" ] || fail "$site=$action: no report written"
    verdicts "$WORK/$name.json" > "$WORK/$name.verdicts"
    n=$(wc -l < "$WORK/$name.verdicts")
    [ "$n" -ge 1 ] || fail "$site=$action: empty report"
    # Injection must never flip a verdict: the model holds, so anything
    # other than Holds must be the injected Error — never Fails, and never
    # a bogus budget verdict.
    bad=$(awk '$2 != "Holds" && $2 != "Error"' "$WORK/$name.verdicts")
    [ -z "$bad" ] || fail "$site=$action: unexpected verdicts: $bad"
    case $site in
      cache.*|trace.*)
        # Durability/telemetry sites degrade; verdicts must be untouched.
        [ "$n" -eq "$TOTAL" ] \
          || fail "$site=$action: $n of $TOTAL obligations reported"
        errs=$(awk '$2 == "Error"' "$WORK/$name.verdicts" | wc -l)
        [ "$errs" -eq 0 ] \
          || fail "$site=$action: degradation site produced $errs Error verdict(s)"
        [ "$rc" -eq 0 ] || fail "$site=$action: degraded run exited $rc"
        ;;
      scheduler.*)
        # Fails per obligation: siblings must all still be reported.
        [ "$n" -eq "$TOTAL" ] \
          || fail "$site=$action: $n of $TOTAL obligations reported"
        ;;
    esac
    note "sweep $site=$action: ok (exit $rc, $(awk '$2 == "Holds"' "$WORK/$name.verdicts" | wc -l)/$n hold)"
  done
done

# ---------------------------------------------------------------------------
# Phase 2: SIGKILL mid-batch, then re-run on the same --cache-dir
# ---------------------------------------------------------------------------
# decided_in STORE: the number of decided entries a store holds.
decided_in() { grep -c '"verdict": "Holds"' "$1/obligations.jsonl" || true; }

CMC_FAILPOINTS="scheduler.dispatch=delay(1000)" "$CMC" check $COMMON \
  --cache-dir "$WORK/kr.cache" --report "$WORK/kr.json" \
  --trace "$WORK/kr.trace.jsonl" "$MODEL" > "$WORK/kr.log" 2>&1 &
pid=$!
sleep 3
kill -9 "$pid" 2>/dev/null || fail "run finished before the SIGKILL (delay too short)"
wait "$pid" 2>/dev/null
note "SIGKILLed pid $pid mid-batch"

[ -s "$WORK/kr.cache/obligations.jsonl" ] || fail "no cache store survived the SIGKILL"
decided=$(decided_in "$WORK/kr.cache")
[ "$decided" -gt 0 ] || fail "the store holds no decided verdicts"
[ "$decided" -lt "$TOTAL" ] || fail "all obligations decided before the kill"
note "store survived with $decided/$TOTAL decided verdicts"

run_cmc resume --cache-dir "$WORK/kr.cache" \
  || fail "resume run exited $? (log: $(cat "$WORK/resume.log"))"
served=$(grep -o '"verdict_source": "cache"' "$WORK/resume.json" | wc -l)
[ "$served" -eq "$decided" ] \
  || fail "resume served $served verdicts from the store, which held $decided"
verdicts "$WORK/resume.json" > "$WORK/resume.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/resume.verdicts" \
  || fail "resumed report differs from the clean run"
note "resume served $served stored verdicts; final report matches clean"

# ---------------------------------------------------------------------------
# Phase 3: SIGKILL the daemon mid-CHECK, restart on the same state, resubmit
# ---------------------------------------------------------------------------
SOCK=$WORK/chaos.sock
start_daemon() { # extra serve args...
  "$CMC" serve --socket "$SOCK" --compose --threads 2 \
    --cache-dir "$WORK/srv.cache" \
    --trace "$WORK/srv.trace.jsonl" "$@" >> "$WORK/srv.log" 2>&1 &
  SRV=$!
  # A stale socket file from a SIGKILLed predecessor still exists, so poll
  # with a real STATUS round-trip, not a file check.
  for _ in $(seq 100); do
    "$CMC" submit --socket "$SOCK" --status > /dev/null 2>&1 && return 0
    kill -0 "$SRV" 2>/dev/null || fail "daemon died on start: $(cat "$WORK/srv.log")"
    sleep 0.1
  done
  fail "daemon never answered on $SOCK: $(cat "$WORK/srv.log")"
}

start_daemon --failpoint "scheduler.dispatch=delay(1000)"
"$CMC" submit --socket "$SOCK" --id doomed --report "$WORK/srv-doomed.json" \
  "$MODEL" > "$WORK/srv-doomed.log" 2>&1 &
client=$!
sleep 3
kill -9 "$SRV" 2>/dev/null || fail "daemon finished before the SIGKILL"
wait "$SRV" 2>/dev/null
wait "$client" 2>/dev/null \
  && fail "client reported success although its daemon was SIGKILLed"
note "SIGKILLed daemon pid $SRV mid-CHECK"

[ -s "$WORK/srv.cache/obligations.jsonl" ] || fail "no server store survived the SIGKILL"
decided=$(decided_in "$WORK/srv.cache")
[ "$decided" -gt 0 ] || fail "the server store holds no decided verdicts"
[ "$decided" -lt "$TOTAL" ] || fail "all obligations decided before the kill"
note "server store survived with $decided/$TOTAL decided verdicts"

# Restart on the same socket (now stale) and cache dir; no failpoint.
start_daemon
"$CMC" submit --socket "$SOCK" --id retry --report "$WORK/srv-retry.json" \
  "$MODEL" > "$WORK/srv-retry.log" 2>&1 \
  || fail "resubmission failed: $(cat "$WORK/srv-retry.log")"
verdicts "$WORK/srv-retry.json" > "$WORK/srv-retry.verdicts"
diff -u "$WORK/clean.verdicts" "$WORK/srv-retry.verdicts" \
  || fail "post-restart report differs from the clean run"
replayed=$(grep -o '"verdict_source": "cache"' "$WORK/srv-retry.json" | wc -l)
[ "$replayed" -eq "$decided" ] \
  || fail "$replayed verdicts served from the store, which held $decided"
note "restarted daemon replayed $replayed verdicts; report matches clean"

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM: $(cat "$WORK/srv.log")"
[ ! -S "$SOCK" ] || fail "socket not unlinked on drain"
note "daemon drained cleanly after the chaos (exit 0)"

note "PASS"
