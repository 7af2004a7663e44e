#!/usr/bin/env bash
#===--- tests/failover_smoke.sh - Warm-standby failover e2e test ---------===//
#
# Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
#
# The replication acceptance run: pair a primary ptran-serve with a
# --standby-of follower, prove the standby serves byte-identical read-only
# estimates while refusing writes, kill -9 the primary and promote the
# standby (SIGUSR1) into a writable daemon whose answers match the
# pre-kill reference byte-for-byte, then sweep every replication crash
# point (repl.ship / repl.snapshot / repl.ack on the primary,
# repl.journal / repl.apply / repl.bootstrap / repl.promote on the
# standby) and demand the pair converges again after each. Promotion and
# boot are held to wall-clock SLOs (override with PTRAN_PROMOTE_SLO_MS /
# PTRAN_RECOVERY_SLO_MS). Usage:
#
#   failover_smoke.sh <ptran-serve> <ptran-bench-client> <work-dir>
#
#===----------------------------------------------------------------------===//

set -u

SERVE=$1
CLIENT=$2
WORK=$3

PROMOTE_SLO_MS=${PTRAN_PROMOTE_SLO_MS:-30000}
RECOVERY_SLO_MS=${PTRAN_RECOVERY_SLO_MS:-60000}

rm -rf "$WORK"
mkdir -p "$WORK"
PSTATE="$WORK/primary"
SSTATE="$WORK/standby"
PSOCK="$WORK/p.sock"
SSOCK="$WORK/s.sock"
# Unix socket paths are capped at ~107 bytes; build trees can be deep.
if [ ${#PSOCK} -ge 100 ]; then
  PSOCK=$(mktemp -u /tmp/ptran-failover-XXXXXX.sock)
  SSOCK="$PSOCK.s"
fi

PROBES="--probe=bench-0 --probe=bench-0:work --probe=bench-1 --probe=bench-1:tail"
RC=0
PRIMARY_PID=
STANDBY_PID=

fail() {
  echo "failover_smoke: $*" >&2
  RC=1
}

now_ms() { date +%s%3N; }

# start_primary <log> [extra args...] — PTRAN_FAULT rides along if the
# caller exported it. Enforces the boot-recovery SLO.
start_primary() {
  local LOG=$1
  shift
  local T0
  T0=$(now_ms)
  "$SERVE" --socket="$PSOCK" --state-dir="$PSTATE" --fsync=always \
    --snapshot-interval-ms=0 "$@" >"$LOG" 2>&1 &
  PRIMARY_PID=$!
  for _ in $(seq 1 200); do
    grep -q "listening on" "$LOG" 2>/dev/null && break
    kill -0 "$PRIMARY_PID" 2>/dev/null || return 1
    sleep 0.1
  done
  grep -q "listening on" "$LOG" 2>/dev/null || return 1
  local MS=$(( $(now_ms) - T0 ))
  if [ "$MS" -gt "$RECOVERY_SLO_MS" ]; then
    fail "primary boot recovery took ${MS}ms (SLO ${RECOVERY_SLO_MS}ms)"
  fi
  return 0
}

# start_standby <log> [extra args...]
start_standby() {
  local LOG=$1
  shift
  local T0
  T0=$(now_ms)
  "$SERVE" --socket="$SSOCK" --state-dir="$SSTATE" --fsync=always \
    --snapshot-interval-ms=0 --standby-of="$PSOCK" "$@" >"$LOG" 2>&1 &
  STANDBY_PID=$!
  for _ in $(seq 1 200); do
    grep -q "listening on" "$LOG" 2>/dev/null && break
    kill -0 "$STANDBY_PID" 2>/dev/null || return 1
    sleep 0.1
  done
  grep -q "listening on" "$LOG" 2>/dev/null || return 1
  local MS=$(( $(now_ms) - T0 ))
  if [ "$MS" -gt "$RECOVERY_SLO_MS" ]; then
    fail "standby boot took ${MS}ms (SLO ${RECOVERY_SLO_MS}ms)"
  fi
  return 0
}

# wait_exit <pid> <expected-rc> <what>
wait_exit() {
  local PID=$1 WANT=$2 WHAT=$3 GOT
  wait "$PID"
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    fail "$WHAT exited with rc=$GOT, wanted $WANT"
  fi
}

# wait_catchup <reference-file> <tag> — polls the standby's probes until
# they byte-match the reference (replication lag bounded by the timeout).
wait_catchup() {
  local REF=$1 TAG=$2
  for _ in $(seq 1 200); do
    if "$CLIENT" --socket="$SSOCK" $PROBES >"$WORK/$TAG.standby.out" 2>&1 \
        && diff -q "$REF" "$WORK/$TAG.standby.out" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  diff -u "$REF" "$WORK/$TAG.standby.out" >&2
  fail "$TAG: standby never converged on the primary's answers"
  return 1
}

# quiesce_primary <tag> — seal and fold every session's pending stream
# deltas now. --stream-writers appends are never flushed by the client;
# left alone, the primary's background flusher folds them some time
# later, possibly after the reference probes ran, and the standby then
# converges on answers ahead of the reference. Each connection sends an
# estimate and then one append+flush request (--stream-every=2), whose
# session alternates, so every session's epoch is sealed synchronously.
quiesce_primary() {
  "$CLIENT" --socket="$PSOCK" --connections=2 --requests=2 --sessions=2 \
    --ingest-every=0 --stream-every=2 >"$WORK/$1.quiesce.log" 2>&1
}

# promote_standby <log> <tag> — SIGUSR1, wait for the promotion log line,
# enforce the promotion SLO.
promote_standby() {
  local LOG=$1 TAG=$2
  local T0
  T0=$(now_ms)
  kill -USR1 "$STANDBY_PID"
  for _ in $(seq 1 200); do
    grep -q "promoted to primary" "$LOG" 2>/dev/null && break
    kill -0 "$STANDBY_PID" 2>/dev/null || { fail "$TAG: standby died during promotion"; return 1; }
    sleep 0.1
  done
  grep -q "promoted to primary" "$LOG" 2>/dev/null \
    || { fail "$TAG: promotion never logged"; return 1; }
  local MS=$(( $(now_ms) - T0 ))
  if [ "$MS" -gt "$PROMOTE_SLO_MS" ]; then
    fail "$TAG: promotion took ${MS}ms (SLO ${PROMOTE_SLO_MS}ms)"
  fi
  return 0
}

stop_all() {
  [ -n "$PRIMARY_PID" ] && kill -9 "$PRIMARY_PID" 2>/dev/null
  [ -n "$STANDBY_PID" ] && kill -9 "$STANDBY_PID" 2>/dev/null
  [ -n "$PRIMARY_PID" ] && wait "$PRIMARY_PID" 2>/dev/null
  [ -n "$STANDBY_PID" ] && wait "$STANDBY_PID" 2>/dev/null
  PRIMARY_PID=
  STANDBY_PID=
}

#--- 1. Catch-up: populate the primary FIRST, then attach a standby. -----===//

start_primary "$WORK/p1.log" --repl-ack=batch || {
  echo "failover_smoke: primary never came up" >&2
  cat "$WORK/p1.log" >&2
  exit 1
}
"$CLIENT" --socket="$PSOCK" --setup-only --sessions=2 \
  >"$WORK/setup.log" 2>&1 || fail "session setup failed"
"$CLIENT" --socket="$PSOCK" --connections=4 --requests=8 --sessions=2 \
  --ingest-every=4 --stream-every=3 >"$WORK/traffic1.log" 2>&1 \
  || fail "pre-standby traffic failed"
"$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/ref1.out" 2>&1 \
  || fail "reference probes failed"

start_standby "$WORK/s1.log" || {
  fail "standby never came up"
  cat "$WORK/s1.log" >&2
  exit 1
}
grep -q "standby" "$WORK/s1.log" || fail "standby role not logged"
wait_catchup "$WORK/ref1.out" catchup

#--- 2. The standby refuses writes with a structured error. --------------===//

"$CLIENT" --socket="$SSOCK" --setup-only --sessions=1 \
  >"$WORK/reject.log" 2>&1 && fail "standby accepted a write"
grep -q "standby replica" "$WORK/reject.log" \
  || fail "write rejection lacks the structured standby message"

#--- 3. Live tail: more primary traffic while the subscription is up, ----===//
#--- plus concurrent stream writers; the standby tracks it all. ----------===//

"$CLIENT" --socket="$PSOCK" --connections=4 --requests=8 --sessions=2 \
  --ingest-every=3 --stream-every=2 --stream-writers=2 \
  >"$WORK/traffic2.log" 2>&1 || fail "live-tail traffic failed"
quiesce_primary livetail || fail "live-tail quiesce failed"
"$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/ref2.out" 2>&1 \
  || fail "live-tail reference probes failed"
wait_catchup "$WORK/ref2.out" livetail
stop_all

#--- 4. ack=always: a kill -9'd primary loses NOTHING it acknowledged. ---===//

start_primary "$WORK/p2.log" --repl-ack=always || fail "ack=always primary failed"
start_standby "$WORK/s2.log" --repl-ack=always || fail "ack=always standby failed"
# Quiesced strict check: every mutation below was acked under ack=always,
# so every one of them must survive the primary's death.
"$CLIENT" --socket="$PSOCK" --connections=4 --requests=6 --sessions=2 \
  --ingest-every=3 >"$WORK/traffic3.log" 2>&1 || fail "acked traffic failed"
"$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/ref3.out" 2>&1 \
  || fail "acked reference probes failed"
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null
PRIMARY_PID=

promote_standby "$WORK/s2.log" failover
"$CLIENT" --socket="$SSOCK" $PROBES >"$WORK/promoted.out" 2>&1 \
  || fail "promoted-standby probes failed"
diff -u "$WORK/ref3.out" "$WORK/promoted.out" >&2 \
  || fail "an acknowledged mutation was lost across failover"

# The promoted daemon is a real primary: it accepts writes.
"$CLIENT" --socket="$SSOCK" --connections=2 --requests=4 --sessions=2 \
  --ingest-every=2 >"$WORK/postpromote.log" 2>&1 \
  || fail "promoted standby refused writes"
"$CLIENT" --socket="$SSOCK" $PROBES >"$WORK/promoted2.out" 2>&1 \
  || fail "post-promotion probes failed"

# Replay determinism: a fresh daemon on a byte copy of the promoted
# standby's state answers identically — the journal it accumulated purely
# from shipped frames (plus its own post-promotion writes) is a valid
# durable history in its own right.
kill -TERM "$STANDBY_PID"
wait_exit "$STANDBY_PID" 0 "promoted standby (graceful shutdown)"
STANDBY_PID=
rm -rf "$SSTATE.copy"
cp -a "$SSTATE" "$SSTATE.copy"
"$SERVE" --socket="$SSOCK" --state-dir="$SSTATE.copy" --fsync=always \
  --snapshot-interval-ms=0 >"$WORK/replay.log" 2>&1 &
REPLAY_PID=$!
for _ in $(seq 1 200); do
  grep -q "listening on" "$WORK/replay.log" 2>/dev/null && break
  kill -0 "$REPLAY_PID" 2>/dev/null || break
  sleep 0.1
done
"$CLIENT" --socket="$SSOCK" $PROBES >"$WORK/replay.out" 2>&1 \
  || fail "replay probes failed"
diff -u "$WORK/promoted2.out" "$WORK/replay.out" >&2 \
  || fail "replaying the promoted standby's state diverged"
kill -9 "$REPLAY_PID" 2>/dev/null
wait "$REPLAY_PID" 2>/dev/null
rm -rf "$SSTATE.copy"

#--- 5. Primary-side crash points: the daemon dies at the injected -------===//
#--- point; a restarted primary re-serves the standby to convergence. ----===//

# Fresh pair for the crash sweeps.
rm -rf "$PSTATE" "$SSTATE"
start_primary "$WORK/p3.log" --repl-ack=batch || fail "crash-sweep primary failed"
"$CLIENT" --socket="$PSOCK" --setup-only --sessions=2 >/dev/null 2>&1 \
  || fail "crash-sweep setup failed"
"$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/ref4.out" 2>&1 \
  || fail "crash-sweep reference probes failed"
kill -TERM "$PRIMARY_PID"
wait_exit "$PRIMARY_PID" 0 "crash-sweep primary (graceful shutdown)"
PRIMARY_PID=

for POINT in repl.ship repl.snapshot repl.ack; do
  # The graceful shutdown above (and each sweep's own shutdown) rotated
  # the journal, so a fresh standby forces the bootstrap path — which is
  # what repl.snapshot needs, and harmless for the others.
  rm -rf "$SSTATE"
  export PTRAN_FAULT="crash.at=$POINT"
  start_primary "$WORK/$POINT.p.log" --repl-ack=batch \
    || fail "$POINT: primary failed to boot"
  unset PTRAN_FAULT
  start_standby "$WORK/$POINT.s.log" --repl-ack=batch \
    || fail "$POINT: standby failed to boot"
  # Traffic pushes frames (and acks) through the subscription until the
  # primary dies at the injected point; the client may see the hangup.
  "$CLIENT" --socket="$PSOCK" --connections=2 --requests=6 --sessions=2 \
    --ingest-every=3 >/dev/null 2>&1
  wait_exit "$PRIMARY_PID" 42 "primary (crash at $POINT)"
  PRIMARY_PID=

  # Restart the primary cleanly; the standby reconnects with backoff and
  # converges on whatever survived the crash.
  start_primary "$WORK/$POINT.p2.log" --repl-ack=batch \
    || fail "$POINT: primary restart failed"
  "$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/$POINT.ref.out" 2>&1 \
    || fail "$POINT: post-restart probes failed"
  wait_catchup "$WORK/$POINT.ref.out" "$POINT"
  kill -9 "$STANDBY_PID" 2>/dev/null
  wait "$STANDBY_PID" 2>/dev/null
  STANDBY_PID=
  kill -TERM "$PRIMARY_PID"
  wait_exit "$PRIMARY_PID" 0 "primary ($POINT graceful shutdown)"
  PRIMARY_PID=
done

#--- 6. Standby-side crash points: the standby dies at the injected ------===//
#--- point; a restarted standby recovers its journal and converges. ------===//

start_primary "$WORK/p4.log" --repl-ack=batch || fail "standby-sweep primary failed"
"$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/ref5.out" 2>&1 \
  || fail "standby-sweep reference probes failed"

for POINT in repl.bootstrap repl.journal repl.apply; do
  # repl.bootstrap runs first, on a fresh state dir against the rotated
  # primary journal: the standby dies mid-bootstrap, leaving the pending
  # marker; its restart must detect the marker and re-bootstrap from
  # scratch. The later points then exercise the streaming apply path.
  [ "$POINT" = repl.bootstrap ] && rm -rf "$SSTATE"
  export PTRAN_FAULT="crash.at=$POINT"
  start_standby "$WORK/$POINT.s.log" --repl-ack=batch
  unset PTRAN_FAULT
  if [ "$POINT" != repl.bootstrap ]; then
    # Streaming points need fresh frames to ship.
    "$CLIENT" --socket="$PSOCK" --connections=2 --requests=4 --sessions=2 \
      --ingest-every=2 >/dev/null 2>&1 || fail "$POINT: traffic failed"
  fi
  wait_exit "$STANDBY_PID" 42 "standby (crash at $POINT)"
  STANDBY_PID=

  if [ "$POINT" = repl.bootstrap ]; then
    [ -f "$SSTATE/repl-bootstrap.pending" ] \
      || fail "$POINT: no pending marker after a mid-bootstrap crash"
  fi
  start_standby "$WORK/$POINT.s2.log" --repl-ack=batch \
    || fail "$POINT: standby restart failed"
  if [ "$POINT" = repl.bootstrap ]; then
    grep -q "incomplete bootstrap detected" "$WORK/$POINT.s2.log" \
      || fail "$POINT: torn bootstrap not detected on restart"
  fi
  "$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/$POINT.ref.out" 2>&1 \
    || fail "$POINT: reference probes failed"
  wait_catchup "$WORK/$POINT.ref.out" "$POINT"
  kill -9 "$STANDBY_PID" 2>/dev/null
  wait "$STANDBY_PID" 2>/dev/null
  STANDBY_PID=
done

#--- 7. Crash during promotion: the synced journal survives; a restart ---===//
#--- WITHOUT --standby-of is a plain primary on the replicated state. ----===//

start_standby "$WORK/promote-crash.s.log" --repl-ack=batch \
  || fail "promote-crash standby failed to boot"
"$CLIENT" --socket="$PSOCK" $PROBES >"$WORK/ref6.out" 2>&1 \
  || fail "promote-crash reference probes failed"
wait_catchup "$WORK/ref6.out" promote-crash-pre
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null
PRIMARY_PID=

# Arm the crash point inside the running standby via a restart: the fault
# config is read at process start.
kill -9 "$STANDBY_PID" 2>/dev/null
wait "$STANDBY_PID" 2>/dev/null
export PTRAN_FAULT="crash.at=repl.promote"
"$SERVE" --socket="$SSOCK" --state-dir="$SSTATE" --fsync=always \
  --snapshot-interval-ms=0 --standby-of="$PSOCK" \
  >"$WORK/promote-crash.s2.log" 2>&1 &
STANDBY_PID=$!
unset PTRAN_FAULT
for _ in $(seq 1 200); do
  grep -q "listening on" "$WORK/promote-crash.s2.log" 2>/dev/null && break
  kill -0 "$STANDBY_PID" 2>/dev/null || break
  sleep 0.1
done
kill -USR1 "$STANDBY_PID"
wait_exit "$STANDBY_PID" 42 "standby (crash at repl.promote)"
STANDBY_PID=

# The replicated journal was synced before the crash: a plain (non-
# standby) daemon on that state dir serves the reference answers.
"$SERVE" --socket="$SSOCK" --state-dir="$SSTATE" --fsync=always \
  --snapshot-interval-ms=0 >"$WORK/promote-crash.final.log" 2>&1 &
STANDBY_PID=$!
for _ in $(seq 1 200); do
  grep -q "listening on" "$WORK/promote-crash.final.log" 2>/dev/null && break
  kill -0 "$STANDBY_PID" 2>/dev/null || break
  sleep 0.1
done
"$CLIENT" --socket="$SSOCK" $PROBES >"$WORK/promote-crash.out" 2>&1 \
  || fail "post-promote-crash probes failed"
diff -u "$WORK/ref6.out" "$WORK/promote-crash.out" >&2 \
  || fail "a promotion crash lost replicated state"
"$CLIENT" --socket="$SSOCK" --probe=bench-0 --shutdown >/dev/null 2>&1 \
  || fail "final shutdown failed"
wait_exit "$STANDBY_PID" 0 "final daemon (graceful shutdown)"
STANDBY_PID=

stop_all
if [ "$RC" -ne 0 ]; then
  echo "=== daemon logs ===" >&2
  tail -n 20 "$WORK"/*.log >&2
fi
exit $RC
