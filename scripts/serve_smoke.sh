#!/bin/sh
# serve-smoke: boot a statsrun with the telemetry server up, curl every
# endpoint, and assert the expected status codes. Run via `make serve-smoke`.
set -eu

PORT="${PORT:-18417}"
BASE="http://127.0.0.1:$PORT"
TMP=$(mktemp -d)

go build -o "$TMP/statsrun" ./cmd/statsrun
"$TMP/statsrun" -workload swaptions -aux -size 16 -workers 4 \
    -serve "127.0.0.1:$PORT" -repeat 0 -pprof >"$TMP/log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

# Wait for the server to come up.
up=0
i=0
while [ "$i" -lt 100 ]; do
    if curl -fsS -o /dev/null "$BASE/" 2>/dev/null; then
        up=1
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ "$up" -ne 1 ]; then
    echo "serve-smoke: server never came up; statsrun log:" >&2
    cat "$TMP/log" >&2
    exit 1
fi

fail=0
check() {
    ep=$1
    want=$2
    code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE$ep")
    case ",$want," in
    *",$code,"*) echo "ok   $ep ($code)" ;;
    *)
        echo "FAIL $ep (got $code, want $want)"
        fail=1
        ;;
    esac
}

check /                     200
check /metrics              200
check /healthz              200,503  # 503 is the aborting verdict, still a served answer
check /signals              200
check '/events?once=1'      200
check /trace                200
check /spans                200
check /debug/pprof/cmdline  200

# The exposition must carry the engine's counters and the tracer totals.
metrics=$(curl -s "$BASE/metrics")
for series in stats_groups_started_total trace_events_emitted_total telemetry_scrapes_total; do
    if printf '%s\n' "$metrics" | grep -q "^$series "; then
        echo "ok   /metrics has $series"
    else
        echo "FAIL /metrics missing $series"
        fail=1
    fi
done

# /signals must be a rolling report with the control rates and the
# wasted-work attribution, and the gauges must reach /metrics.
signals=$(curl -s "$BASE/signals")
for field in '"abort_rate"' '"wasted_work_ratio"' '"validation_p99_ns"'; do
    if printf '%s\n' "$signals" | grep -q "$field"; then
        echo "ok   /signals has $field"
    else
        echo "FAIL /signals missing $field"
        fail=1
    fi
done
if printf '%s\n' "$metrics" | grep -q '^signals_abort_rate_ppm '; then
    echo "ok   /metrics has signals_abort_rate_ppm"
else
    echo "FAIL /metrics missing signals_abort_rate_ppm"
    fail=1
fi

# One SSE frame from the signals stream.
if curl -s --max-time 3 "$BASE/signals?stream=1" | head -1 | grep -q '^data: '; then
    echo "ok   /signals?stream=1 streams frames"
else
    echo "FAIL /signals?stream=1 produced no SSE frame"
    fail=1
fi

# /spans must be a span document with at least one group.
if curl -s "$BASE/spans" | grep -q '"groups"'; then
    echo "ok   /spans is a span document"
else
    echo "FAIL /spans is not a span document"
    fail=1
fi

exit "$fail"
