# daemon_lib.sh — shared boot/wait/stop helpers for smoke scripts that
# drive a real balignd process. Source from bash with:
#
#   WORK=$(mktemp -d)
#   . "$(dirname "$0")/daemon_lib.sh"
#
# Callers provide fail() and set WORK before sourcing. Every booted daemon
# is tracked in DAEMON_PIDS and killed by daemon_cleanup (wire it into the
# caller's EXIT trap).

DAEMON_PIDS=""

# boot_daemon NAME BIN [ARGS...] — start BIN with an ephemeral port and an
# addr file, wait for it to publish its address, and export
# DAEMON_ADDR/DAEMON_PID. Logs to $WORK/NAME.log; addr file is
# $WORK/NAME.addr (passed to the daemon as -addr-file).
boot_daemon() {
    name=$1; shift
    bin=$1; shift
    addr_file="$WORK/$name.addr"
    rm -f "$addr_file"
    "$bin" -addr 127.0.0.1:0 -addr-file "$addr_file" "$@" \
        >"$WORK/$name.log" 2>&1 &
    DAEMON_PID=$!
    DAEMON_PIDS="$DAEMON_PIDS $DAEMON_PID"

    # Wait (up to ~15s) for the daemon to publish its bound address.
    i=0
    while [ ! -s "$addr_file" ]; do
        i=$((i + 1))
        [ "$i" -gt 150 ] && fail "$name never published its address"
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "$name exited before listening"
        sleep 0.1
    done
    DAEMON_ADDR=$(cat "$addr_file")
    echo "$(basename "$0" .sh): $name up at $DAEMON_ADDR (pid $DAEMON_PID)"
}

# stop_daemon PID — SIGTERM the daemon and require a clean (graceful-drain)
# exit status.
stop_daemon() {
    pid=$1
    kill -TERM "$pid" 2>/dev/null || fail "daemon $pid already gone before SIGTERM"
    st=0
    wait "$pid" || st=$?
    DAEMON_PIDS=$(printf '%s' "$DAEMON_PIDS" | sed "s/ $pid//")
    [ "$st" = 0 ] || fail "daemon $pid exited $st after SIGTERM"
}

# daemon_cleanup — kill anything still tracked; for EXIT traps.
daemon_cleanup() {
    for pid in $DAEMON_PIDS; do
        kill "$pid" 2>/dev/null || true
    done
}

# dump_daemon_logs — append every daemon log to stderr (failure path).
dump_daemon_logs() {
    for f in "$WORK"/*.log; do
        [ -f "$f" ] || continue
        sed "s|^|$(basename "$0" .sh):   $(basename "$f" .log): |" "$f" >&2
    done
}
