#!/usr/bin/env sh
# End-to-end smoke for the serving daemon (docs/serving.md "Daemon"):
#
#   1. train a tiny model;
#   2. run the same request stream (with a mid-stream {"op":"reload"}
#      hot-swap) through `culda_serve --oneshot` (direct InferBatch, the
#      reference) and through the real coalescing daemon;
#   3. require the responses to be byte-identical after sorting by id and
#      normalizing the generation tag (reload re-reads the same file, so
#      only the generation number may differ — a request that crosses the
#      swap boundary must still produce identical bytes);
#   4. require the swap to have actually happened (a generation-2 ack) and
#      the daemon to have genuinely coalesced (batches < requests);
#   5. require SIGTERM to drain gracefully: every admitted request is
#      answered and the exit code is 0.
#
# Usage: serve_smoke.sh <build-dir-with-tools>
#
# SERVE_EXTRA_FLAGS, when set, is appended (word-split) to every
# culda_serve invocation — daemon, --oneshot reference, and drain — so CI
# can re-run the whole bit-identity gate with e.g.
# "--pin --numa-replicate --workers=2" forced on (docs/parallelism.md).
set -eu

bindir="$1"
extra=${SERVE_EXTRA_FLAGS:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail() {
  echo "SMOKE FAIL: $1" >&2
  exit 1
}

echo "== training tiny model"
"$bindir/culda_train" --synthetic=nytimes --scale=0.0005 --topics=16 \
  --iters=5 --seed=7 --out="$work/model.bin" --quiet \
  || fail "training exited $?"

echo "== generating request stream (40 requests + mid-stream reload)"
# r05 carries a client trace id; both paths must echo it byte-identically.
i=0
while [ $i -lt 40 ]; do
  if [ $i -eq 20 ]; then
    printf '{"op":"reload","id":"swap"}\n'
  fi
  if [ $i -eq 5 ]; then
    printf '{"id":"r%02d","words":[%d,%d,%d],"seed":%d,"trace":"t05"}\n' \
      "$i" "$((i % 90))" "$(((i * 7 + 3) % 90))" "$((i % 13))" "$((i + 1))"
  else
    printf '{"id":"r%02d","words":[%d,%d,%d],"seed":%d}\n' \
      "$i" "$((i % 90))" "$(((i * 7 + 3) % 90))" "$((i % 13))" "$((i + 1))"
  fi
  i=$((i + 1))
done > "$work/requests.jsonl"

# The generation differs between pre- and post-swap responses (and the
# daemon may serve a queued pre-swap request from the post-swap snapshot);
# since reload re-reads the same model file the payload must be identical
# either way, so the tag is normalized out before the diff.
normalize() {
  sed 's/"generation":[0-9]*/"generation":G/' "$1" | sort
}

echo "== reference run (--oneshot, direct InferBatch)"
# shellcheck disable=SC2086  # $extra is intentionally word-split
"$bindir/culda_serve" --model="$work/model.bin" --iters=10 --oneshot \
  --quiet $extra < "$work/requests.jsonl" > "$work/oneshot.out" \
  || fail "oneshot run exited $?"

echo "== daemon run (coalescing + hot swap + live exposition)"
# --metrics-out enables the registry, so the {"op":"stats"} payload carries
# the serve.* counters the coalescing check below reads; --metrics-expose
# has the background exporter publish a Prometheus file alongside. The
# sleep lets the queued infer batches complete before the stats op is
# admitted, so the live payload deterministically carries the populated
# per-endpoint latency series (the exit-time serve_summary re-checks it
# race-free regardless).
{ cat "$work/requests.jsonl"; sleep 1; printf '{"op":"stats","id":"st"}\n'; } |
  "$bindir/culda_serve" --model="$work/model.bin" --iters=10 \
    --max-batch=8 --metrics-out="$work/metrics.jsonl" \
    --metrics-expose="$work/expose.prom" --export-interval-ms=100 \
    --quiet $extra > "$work/daemon.out" \
  || fail "daemon run exited $?"

grep -v '"id":"st"' "$work/daemon.out" > "$work/daemon.responses"
normalize "$work/oneshot.out" > "$work/oneshot.sorted"
normalize "$work/daemon.responses" > "$work/daemon.sorted"
diff -u "$work/oneshot.sorted" "$work/daemon.sorted" \
  || fail "daemon responses are not bit-identical to direct InferBatch"

grep -q '"id":"swap","ok":true,"op":"reload","generation":2' \
  "$work/daemon.out" || fail "hot swap to generation 2 never acknowledged"

# The traced request's client trace id is echoed on its response line, on
# both paths, identically (it is inside the normalized diff above too).
grep -q '"id":"r05","trace":"t05","ok":true' "$work/daemon.out" \
  || fail "daemon did not echo the client trace id"
grep -q '"id":"r05","trace":"t05","ok":true' "$work/oneshot.out" \
  || fail "oneshot did not echo the client trace id"

# The {"op":"stats"} ack must carry a live registry payload...
grep -q '"id":"st","ok":true,"op":"stats".*"payload":{.*"serve\.requests"' \
  "$work/daemon.out" || fail "stats ack lacks a metrics payload"
# ...including the per-endpoint latency histogram with its percentiles.
grep -q '"serve\.request\.latency{op=infer}":{"type":"histogram".*"p99"' \
  "$work/daemon.out" || fail "stats payload lacks per-endpoint histogram"

# The exposed Prometheus file must be a complete, well-formed exposition:
# the exporter's final post-drain export leaves # TYPE lines, cumulative
# histogram buckets, and the # EOF completeness marker.
[ -f "$work/expose.prom" ] || fail "exposition file was never written"
grep -q '^# TYPE culda_serve_requests counter$' "$work/expose.prom" \
  || fail "exposition lacks a # TYPE line for serve.requests"
grep -q '^culda_serve_request_latency_bucket{op="infer",le="+Inf"} ' \
  "$work/expose.prom" || fail "exposition lacks labeled histogram buckets"
tail -n 1 "$work/expose.prom" | grep -q '^# EOF$' \
  || fail "exposition file is missing the trailing # EOF marker"
[ -f "$work/expose.prom.tmp" ] && fail "torn exposition temp file left behind"

# ...but the coalescing proof reads the exit-time summary (written after
# the drain, so every batch is counted — the mid-stream stats ack races
# with the dispatcher): strictly fewer batches than requests (40 requests
# read in one burst must coalesce: those that arrive while a batch is in
# flight form the next one).
summary=$(grep '"kind":"serve_summary"' "$work/metrics.jsonl") \
  || fail "serve_summary line missing from metrics.jsonl"
batches=$(printf '%s' "$summary" |
  sed -n 's/.*"serve\.batches":{"type":"counter","value":\([0-9]*\).*/\1/p')
requests=$(printf '%s' "$summary" |
  sed -n 's/.*"serve\.requests":{"type":"counter","value":\([0-9]*\).*/\1/p')
[ -n "$batches" ] && [ -n "$requests" ] \
  || fail "stats payload lacks serve.batches/serve.requests: $stats"
# The summary is written after the drain, so the per-endpoint latency
# histogram must be fully populated here no matter how the mid-stream
# stats op raced the dispatcher.
printf '%s' "$summary" |
  grep -q '"serve\.request\.latency{op=infer}":{"type":"histogram".*"p99"' \
  || fail "serve_summary lacks per-endpoint histogram"
[ "$requests" -eq 40 ] || fail "daemon admitted $requests requests, want 40"
[ "$batches" -lt "$requests" ] \
  || fail "no coalescing: $batches batches for $requests requests"
echo "   coalesced $requests requests into $batches batches"

echo "== SIGTERM drain"
# Whether each admitted request is still queued, in flight or answered
# when SIGTERM lands, the graceful path must answer all of them and exit 0.
fifo="$work/in.fifo"
mkfifo "$fifo"
"$bindir/culda_serve" --model="$work/model.bin" --iters=10 \
  --max-batch=64 --quiet $extra \
  < "$fifo" > "$work/drain.out" &
daemon_pid=$!
exec 3>"$fifo"  # hold the fifo open so the daemon never sees EOF
i=0
while [ $i -lt 5 ]; do
  printf '{"id":"d%d","words":[%d,2,3],"seed":5}\n' "$i" "$i" >&3
  i=$((i + 1))
done
sleep 1  # let the frontend admit the lines
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
exec 3>&-
[ "$rc" -eq 0 ] || fail "SIGTERM drain exited $rc, want 0"
answered=$(grep -c '"ok":true' "$work/drain.out") || true
[ "$answered" -eq 5 ] \
  || fail "SIGTERM drain answered $answered of 5 queued requests"

echo "SMOKE OK: bit-identity, trace echo, hot swap, coalescing," \
  "live exposition, graceful drain"
