#!/usr/bin/env sh
# End-to-end observability smoke test, run by `make obs-smoke` and CI.
#
# Starts a real rsrd, submits a job, waits for it, scrapes /metrics, and
# fails unless every required metric family is present with sane values.
# Then runs the rsr CLI with -metrics-out/-trace-out and checks that the
# trace covers every cluster's cold/reverse/hot phases.
set -eu

WORKDIR="$(mktemp -d)"
trap 'kill "$RSRD_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

GO="${GO:-go}"
ADDR="127.0.0.1:18745"

"$GO" build -o "$WORKDIR/rsrd" ./cmd/rsrd
"$GO" build -o "$WORKDIR/rsr" ./cmd/rsr

"$WORKDIR/rsrd" -addr "$ADDR" -parallel 2 >"$WORKDIR/rsrd.log" 2>&1 &
RSRD_PID=$!

# Wait for readiness.
i=0
until curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs-smoke: rsrd did not become ready" >&2
        cat "$WORKDIR/rsrd.log" >&2
        exit 1
    fi
    sleep 0.2
done

# Submit a small reverse-warm-up job and poll until it finishes.
ID=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d '{
    "workload": "twolf", "method": "R$BP (20%)",
    "total": 400000, "seed": 1,
    "regimen": {"ClusterSize": 2000, "NumClusters": 10}}' |
    sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p')
[ -n "$ID" ] || { echo "obs-smoke: job submission returned no id" >&2; exit 1; }

i=0
while :; do
    STATUS=$(curl -fsS "http://$ADDR/v1/jobs/$ID" | sed -n 's/.*"status": "\([a-z]*\)".*/\1/p')
    [ "$STATUS" = done ] && break
    if [ "$STATUS" = failed ] || [ "$i" -gt 150 ]; then
        echo "obs-smoke: job status=$STATUS after ${i} polls" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.2
done

# The job's own result says how many instructions its clusters measured.
HOT_WANT=$(curl -fsS "http://$ADDR/v1/jobs/$ID" | sed -n 's/.*"HotInstructions": \([0-9]*\).*/\1/p')
[ -n "$HOT_WANT" ] && [ "$HOT_WANT" -gt 0 ] ||
    { echo "obs-smoke: job result lacks a positive HotInstructions" >&2; exit 1; }

# Scrape /metrics and require the engine, cache, and phase families.
METRICS="$WORKDIR/metrics.txt"
curl -fsS "http://$ADDR/metrics" >"$METRICS"

# The hot phase counter must equal the job's HotInstructions, and a daemon
# that ran only a sampled job must record no full-detail instructions.
HOT_GOT=$(sed -n 's/^rsr_sampling_phase_instructions_total{phase="hot"} //p' "$METRICS")
[ "$HOT_GOT" = "$HOT_WANT" ] || {
    echo "obs-smoke: phase=\"hot\" counter is '$HOT_GOT', job HotInstructions is $HOT_WANT" >&2
    exit 1
}
FULL_GOT=$(sed -n 's/^rsr_sampling_phase_instructions_total{phase="full"} //p' "$METRICS")
[ -z "$FULL_GOT" ] || [ "$FULL_GOT" = 0 ] || {
    echo "obs-smoke: sampled-only run recorded $FULL_GOT phase=\"full\" instructions" >&2
    exit 1
}

for PATTERN in \
    'rsr_engine_jobs_total{state="done"} 1' \
    'rsr_engine_cache_total{result="miss"} 1' \
    'rsr_engine_job_seconds_count{state="done"} 1' \
    'rsr_sampling_phase_seconds_bucket' \
    'rsr_sampling_clusters_total 10' \
    'rsr_warmup_recon_applied_total' \
    'rsr_cache_events_total{' \
    'rsr_bpred_updates_total{'
do
    if ! grep -Fq "$PATTERN" "$METRICS"; then
        echo "obs-smoke: /metrics is missing: $PATTERN" >&2
        cat "$METRICS" >&2
        exit 1
    fi
done

# A request-scoped ID must come back on every response.
REQID=$(curl -fsS -D - -o /dev/null "http://$ADDR/healthz" | tr -d '\r' |
    sed -n 's/^X-Request-Id: //Ip')
[ -n "$REQID" ] || { echo "obs-smoke: response lacks X-Request-ID" >&2; exit 1; }

# CLI artifacts: a metrics snapshot and a Chrome trace from one run.
"$WORKDIR/rsr" -scale 0.02 -workload twolf -method 'R$BP (20%)' \
    -metrics-out "$WORKDIR/metrics.json" -trace-out "$WORKDIR/trace.json" run >/dev/null

grep -Fq '"name": "rsr_sampling_phase_seconds"' "$WORKDIR/metrics.json" ||
    { echo "obs-smoke: -metrics-out snapshot lacks phase histogram" >&2; exit 1; }
for SPAN in cold-skip reverse-scan hot-sim job-run; do
    grep -Fq "\"name\":\"$SPAN\"" "$WORKDIR/trace.json" ||
        { echo "obs-smoke: -trace-out lacks $SPAN spans" >&2; exit 1; }
done
# -scale 0.02 of the 50x2000 twolf regimen keeps 50 clusters: every cluster
# must contribute a hot-sim span.
HOT=$(grep -o '"name":"hot-sim"' "$WORKDIR/trace.json" | wc -l)
[ "$HOT" -eq 50 ] || { echo "obs-smoke: expected 50 hot-sim spans, got $HOT" >&2; exit 1; }

echo "obs-smoke: ok (metrics families present, hot counter = job HotInstructions ($HOT_WANT), trace covers all clusters)"
