#!/usr/bin/env bash
# Server-mode smoke: one daemon, concurrent submissions, a warm-cache
# resubmission, metrics consistency, a SIGTERM drain, offline compaction
# of the store it leaves, and the submit retry backoff against BUSY.
#
#   scripts/server_smoke.sh [path/to/cmc]
#
# Sequence (all against a throwaway work dir):
#   1. `cmc serve` on a Unix-domain socket with a cache dir and trace;
#      wait for the socket to appear.
#   2. Submit AFS-1 and composed AFS-2 concurrently; both must report
#      Holds (AFS-1: 6 obligations, AFS-2: 12).
#   3. Resubmit the identical composed AFS-2: every obligation must be
#      served from the process-lifetime cache (verdict_source "cache",
#      never "checked") — the warm-win the daemon exists for.
#   4. STATS must be self-consistent: checks_admitted == checks_completed,
#      request_seconds_count matches, the cumulative +Inf latency bucket
#      equals the count, and nothing is left in flight.  Then a model with
#      a syntax error must make submit exit 2 with the parse message.
#   5. SIGTERM must drain: the daemon exits 0, reports the drain on
#      stdout, unlinks its socket, and leaves the decided verdicts in its
#      cache-dir store.
#   6. `cmc cache compact` over that store: idempotent (a second pass drops
#      nothing), sizes reported, and the store still loads — a daemon
#      restarted on it serves the AFS-2 resubmission entirely from cache.
#   7. Submit retry: with that daemon at --max-inflight 1 --queue-depth 0
#      and its one slot held by a slow check, a submit fails fast with
#      exit 6 and no retries; `--max-retries 2` retries twice with backoff
#      and then exits 6.  The slow check is cancelled and the daemon
#      drains with exit 0.
set -u

CMC=${1:-build/tools/cmc}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cmc-server-smoke.XXXXXX")
SOCK=$WORK/cmc.sock
SRV=

cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "server-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "server-smoke: $*"; }

[ -x "$CMC" ] || fail "no cmc binary at $CMC"

# A STATS metric line is "name value"; missing means 0.
metric() { awk -v n="$1" '$1 == n { print $2; found = 1 } END { if (!found) print 0 }' "$WORK/stats.txt"; }

# ---------------------------------------------------------------------------
# 1. Start the daemon
# ---------------------------------------------------------------------------
"$CMC" serve --socket "$SOCK" --cache-dir "$WORK/cache" \
  --trace "$WORK/trace.jsonl" > "$WORK/serve.log" 2>&1 &
SRV=$!

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SRV" 2>/dev/null || fail "daemon died on start: $(cat "$WORK/serve.log")"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon never bound $SOCK: $(cat "$WORK/serve.log")"
note "daemon up (pid $SRV) on $SOCK"

# ---------------------------------------------------------------------------
# 2. Concurrent submissions: AFS-1 and composed AFS-2
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$SOCK" --id afs1 --report "$WORK/afs1.json" \
  models/afs1_composed.smv > "$WORK/afs1.log" 2>&1 &
A=$!
"$CMC" submit --socket "$SOCK" --id afs2-cold --compose \
  --report "$WORK/afs2-cold.json" \
  models/afs2_composed.smv > "$WORK/afs2-cold.log" 2>&1 &
B=$!
wait "$A" || fail "AFS-1 submission failed: $(cat "$WORK/afs1.log")"
wait "$B" || fail "AFS-2 submission failed: $(cat "$WORK/afs2-cold.log")"
for r in afs1 afs2-cold; do
  grep -q '"verdict": "Holds"' "$WORK/$r.json" || fail "$r does not hold"
done
grep -q '"cmc_version": "' "$WORK/afs1.json" \
  || fail "report is not version-stamped"
note "concurrent AFS-1 + AFS-2: both hold"

# ---------------------------------------------------------------------------
# 3. Identical resubmission must be served entirely from the cache
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$SOCK" --id afs2-warm --compose \
  --report "$WORK/afs2-warm.json" \
  models/afs2_composed.smv > "$WORK/afs2-warm.log" 2>&1 \
  || fail "warm AFS-2 submission failed: $(cat "$WORK/afs2-warm.log")"
grep -q '"verdict": "Holds"' "$WORK/afs2-warm.json" || fail "warm AFS-2 does not hold"
grep -q '"verdict_source": "cache"' "$WORK/afs2-warm.json" \
  || fail "warm run served nothing from the cache"
if grep -q '"verdict_source": "checked"' "$WORK/afs2-warm.json"; then
  fail "warm run re-checked an obligation"
fi
hits=$(grep -c '"verdict_source": "cache"' "$WORK/afs2-warm.json")
note "warm AFS-2: all $hits obligations from cache"

# ---------------------------------------------------------------------------
# 4. STATS consistency
# ---------------------------------------------------------------------------
"$CMC" submit --socket "$SOCK" --stats > "$WORK/stats.txt" 2>&1 \
  || fail "STATS failed: $(cat "$WORK/stats.txt")"
admitted=$(metric checks_admitted)
completed=$(metric checks_completed)
[ "$admitted" -eq 3 ] || fail "expected 3 admitted checks, got $admitted"
[ "$completed" -eq "$admitted" ] \
  || fail "admitted ($admitted) != completed ($completed) with the server idle"
[ "$(metric request_seconds_count)" -eq "$admitted" ] \
  || fail "request_seconds_count disagrees with checks_admitted"
[ "$(metric 'request_seconds_bucket{le="+Inf"}')" -eq "$admitted" ] \
  || fail "+Inf latency bucket does not equal the request count"
[ "$(metric requests_in_flight)" -eq 0 ] || fail "requests still in flight"
[ "$(metric requests_queued)" -eq 0 ] || fail "requests still queued"
[ "$(metric checks_rejected_busy)" -eq 0 ] || fail "unexpected BUSY rejections"
note "STATS consistent: $admitted admitted == $completed completed"

# A model that does not parse is a model error: exit 2 with the parse
# message on stderr, not an Error verdict (exit 5).
printf 'MODULE main\nVAR x : boolean\nSPEC AG x\n' > "$WORK/syntax_error.smv"
rc=0
"$CMC" submit --socket "$SOCK" --quiet "$WORK/syntax_error.smv" \
  > "$WORK/syntax.log" 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "syntax-error submit exited $rc, want 2: $(cat "$WORK/syntax.log")"
grep -q "parse error" "$WORK/syntax.log" \
  || fail "syntax-error submit printed no parse message: $(cat "$WORK/syntax.log")"
note "syntax-error submission: exit 2 with the parse message"

# ---------------------------------------------------------------------------
# 5. SIGTERM drains and exits 0
# ---------------------------------------------------------------------------
kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
SRV=
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM: $(cat "$WORK/serve.log")"
grep -q "drained" "$WORK/serve.log" || fail "no drain summary in the serve log"
[ ! -S "$SOCK" ] || fail "socket not unlinked on shutdown"
[ -s "$WORK/cache/obligations.jsonl" ] || fail "no cache store written"
note "SIGTERM drained cleanly (exit 0)"

# ---------------------------------------------------------------------------
# 6. Offline compaction keeps the store loadable (and warm)
# ---------------------------------------------------------------------------
for pass in 1 2; do
  "$CMC" cache compact --cache-dir "$WORK/cache" > "$WORK/compact$pass.log" 2>&1 \
    || fail "compaction pass $pass failed: $(cat "$WORK/compact$pass.log")"
  grep -q "cache compact: .* bytes" "$WORK/compact$pass.log" \
    || fail "no compaction summary: $(cat "$WORK/compact$pass.log")"
done
grep -q "(0 duplicate(s) dropped, 0 corrupt" "$WORK/compact2.log" \
  || fail "second compaction was not a no-op: $(cat "$WORK/compact2.log")"

"$CMC" serve --socket "$SOCK" --cache-dir "$WORK/cache" \
  --max-inflight 1 --queue-depth 0 >> "$WORK/serve.log" 2>&1 &
SRV=$!
for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SRV" 2>/dev/null || fail "daemon died on restart: $(cat "$WORK/serve.log")"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "restarted daemon never bound $SOCK"

"$CMC" submit --socket "$SOCK" --id afs2-compacted --compose \
  --report "$WORK/afs2-compacted.json" \
  models/afs2_composed.smv > "$WORK/afs2-compacted.log" 2>&1 \
  || fail "post-compaction submission failed: $(cat "$WORK/afs2-compacted.log")"
if grep -q '"verdict_source": "checked"' "$WORK/afs2-compacted.json"; then
  fail "post-compaction run re-checked an obligation"
fi
[ "$(grep -c '"verdict_source": "cache"' "$WORK/afs2-compacted.json")" -eq "$hits" ] \
  || fail "post-compaction run did not serve all $hits obligations from the store"
note "compaction: store rewritten, restarted daemon serves all $hits from it"

# ---------------------------------------------------------------------------
# 7. Submit retry backoff against BUSY
# ---------------------------------------------------------------------------
# A saturating 24-bit ripple counter: AG (EF all-ones) holds, but the EF
# fixpoint takes 2^24 backward steps, so the check holds the daemon's one
# slot for seconds until it is cancelled.
bits=24
carry=b0
for i in $(seq 1 $((bits - 1))); do carry="$carry & b$i"; done
{
  echo "MODULE slow"
  echo "VAR"
  for i in $(seq 0 $((bits - 1))); do echo "  b$i : boolean;"; done
  echo "ASSIGN"
  echo "  next(b0) := case $carry : b0; 1 : !b0; esac;"
  below=b0
  for i in $(seq 1 $((bits - 1))); do
    echo "  next(b$i) := case $carry : b$i; $below : !b$i; 1 : b$i; esac;"
    below="$below & b$i"
  done
  echo "SPEC AG (EF ($carry))"
} > "$WORK/slow.smv"

"$CMC" submit --socket "$SOCK" --id slow "$WORK/slow.smv" \
  > "$WORK/slow.log" 2>&1 &
SLOW=$!
for _ in $(seq 100); do
  "$CMC" submit --socket "$SOCK" --status 2>/dev/null | grep -q '"phase": "running"' && break
  sleep 0.1
done
"$CMC" submit --socket "$SOCK" --status 2>/dev/null | grep -q '"phase": "running"' \
  || fail "the slow check never started"

rc=0
"$CMC" submit --socket "$SOCK" --id fast models/afs1_composed.smv \
  > "$WORK/fastfail.log" 2>&1 || rc=$?
[ "$rc" -eq 6 ] || fail "fail-fast BUSY submit exited $rc, want 6: $(cat "$WORK/fastfail.log")"
grep -Eq "retry [0-9]+/" "$WORK/fastfail.log" && fail "retried without --max-retries"

rc=0
"$CMC" submit --socket "$SOCK" --id retried --max-retries 2 --retry-ms 50 \
  models/afs1_composed.smv > "$WORK/retry.log" 2>&1 || rc=$?
[ "$rc" -eq 6 ] || fail "retried BUSY submit exited $rc, want 6: $(cat "$WORK/retry.log")"
[ "$(grep -Ec "retry [0-9]+/" "$WORK/retry.log")" -eq 2 ] \
  || fail "expected 2 retry attempts: $(cat "$WORK/retry.log")"
note "submit retry: fail-fast without the flag, 2 backoff retries with it"

"$CMC" submit --socket "$SOCK" --cancel slow > /dev/null 2>&1 \
  || fail "could not cancel the slow check"
rc=0
wait "$SLOW" || rc=$?
[ "$rc" -eq 0 ] || fail "cancelled submit exited $rc: $(cat "$WORK/slow.log")"
grep -q "Cancelled" "$WORK/slow.log" || fail "slow check was not cancelled: $(cat "$WORK/slow.log")"

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
SRV=
[ "$rc" -eq 0 ] || fail "restarted daemon exited $rc on SIGTERM: $(cat "$WORK/serve.log")"
note "slow check cancelled; restarted daemon drained cleanly (exit 0)"

note "PASS"
