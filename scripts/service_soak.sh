#!/usr/bin/env bash
# Chaos soak for petd (docs/service.md): start the daemon with transient
# link faults enabled, hammer it through petctl's seeded chaos client
# (frame drops, bit flips, connection closes), then SIGTERM it and require
# a clean exit.  Pass criteria:
#   * petctl soak exits 0 (server answered liveness pings throughout —
#     no crash, no hang, typed errors only);
#   * petctl top --once renders the live kMetrics dashboard (exit 0);
#   * SIGUSR1 produces a non-empty Prometheus exposition dump, validated by
#     obscheck --prom when an obscheck binary is supplied;
#   * petd exits 0 after SIGTERM within the watchdog budget (graceful
#     drain, socket unlinked);
#   * connection churn does not leak: CHURN_CONNECTIONS back-to-back
#     `petctl ping` connections grow petd's VmSize by at most
#     CHURN_VSZ_BOUND_MB (each session thread that exits without being
#     joined keeps its 8 MiB stack mapped).
# Run under ASan (the sanitizers CI job builds the same binaries) this is
# the memory-safety soak the service ctest label wires in.
#
# usage: service_soak.sh <petd> <petctl> [obscheck]
#   SOAK_SECONDS overrides the default 5 s budget (CI uses 30).
set -euo pipefail

PETD=${1:?usage: service_soak.sh <petd> <petctl> [obscheck]}
PETCTL=${2:?usage: service_soak.sh <petd> <petctl> [obscheck]}
OBSCHECK=${3:-}
BUDGET=${SOAK_SECONDS:-5}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/petd-soak-XXXXXX.sock")
PROM_OUT=$(mktemp -u "${TMPDIR:-/tmp}/petd-soak-XXXXXX.prom")

"$PETD" --socket="$SOCK" --max-inflight=64 --retry-attempts=4 \
        --link-loss=0.05 --prom-out="$PROM_OUT" &
PETD_PID=$!
cleanup() {
  kill -9 "$PETD_PID" 2>/dev/null || true
  rm -f "$SOCK" "$PROM_OUT"
}
trap cleanup EXIT

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  if ! kill -0 "$PETD_PID" 2>/dev/null; then
    echo "service_soak: petd died during startup" >&2
    exit 1
  fi
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "service_soak: petd socket never appeared" >&2
  exit 1
fi

# Connection churn: a finished session must give back its thread.  The
# bound leaves room for glibc's dead-stack cache (40 MiB) and one fresh
# malloc arena (64 MiB); 200 leaked stacks would be about 1.6 GiB.
vsz_kb() { awk '/^VmSize:/ { print $2 }' "/proc/$PETD_PID/status"; }
ping_n() {
  for _ in $(seq 1 "$1"); do
    "$PETCTL" --socket="$SOCK" ping > /dev/null
  done
}
CHURN_CONNECTIONS=200
CHURN_VSZ_BOUND_MB=128
ping_n 20  # warm up: worker pools, malloc arenas, cached stacks
sleep 0.5
VSZ_BEFORE=$(vsz_kb)
ping_n "$CHURN_CONNECTIONS"
sleep 0.5  # at least one 200 ms accept tick after the last session ends
VSZ_AFTER=$(vsz_kb)
GROWTH_MB=$(( (VSZ_AFTER - VSZ_BEFORE) / 1024 ))
if [ "$GROWTH_MB" -gt "$CHURN_VSZ_BOUND_MB" ]; then
  echo "service_soak: VmSize grew ${GROWTH_MB} MB over $CHURN_CONNECTIONS" \
       "connections (bound ${CHURN_VSZ_BOUND_MB} MB)" >&2
  exit 1
fi
echo "service_soak: churn of $CHURN_CONNECTIONS connections grew VmSize" \
     "${GROWTH_MB} MB"

"$PETCTL" --socket="$SOCK" soak --seconds="$BUDGET" --populations=8 \
          --tags=3000 --chaos-loss=0.15 --chaos-noise=0.15 --chaos-close=0.05

# Observability plane: the live dashboard must render one frame against the
# still-running daemon.
"$PETCTL" --socket="$SOCK" top --once

# SIGUSR1 triggers an atomic Prometheus exposition dump; the accept loop
# services it within one 200 ms poll tick.
kill -USR1 "$PETD_PID"
for _ in $(seq 1 50); do
  [ -s "$PROM_OUT" ] && break
  sleep 0.1
done
if [ ! -s "$PROM_OUT" ]; then
  echo "service_soak: SIGUSR1 produced no prometheus dump" >&2
  exit 1
fi
if [ -n "$OBSCHECK" ]; then
  "$OBSCHECK" --prom="$PROM_OUT"
fi

# Graceful shutdown: SIGTERM, with a watchdog that turns a hung drain into
# a hard failure instead of a hung test.
kill -TERM "$PETD_PID"
(
  sleep 30
  kill -9 "$PETD_PID" 2>/dev/null || true
) &
WATCHDOG=$!
set +e
wait "$PETD_PID"
RC=$?
set -e
kill "$WATCHDOG" 2>/dev/null || true
if [ "$RC" -ne 0 ]; then
  echo "service_soak: petd exited with $RC after SIGTERM" >&2
  exit 1
fi
echo "service_soak: passed (${BUDGET}s chaos, clean shutdown)"
