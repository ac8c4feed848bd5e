#!/usr/bin/env bash
# End-to-end observability smoke test: generate a dataset, build a sharded
# index, start tcserver with the full observability stack (slow-query log,
# pprof sidecar, JSON access log), drive a query with an injected
# X-Request-ID, and assert the whole pipeline:
#
#   - the response echoes the injected request ID;
#   - the JSON access log carries the same ID;
#   - /metrics is valid enough to grep and its engine/query/HTTP counters
#     moved, and one posted update moved the apply histogram and carried
#     edges over;
#   - /api/v1/slowlog captured the query (threshold 1ns) with its plan;
#   - /api/v1/explain reports no cost estimates and an ascending schedule;
#   - /healthz reports the network ready, and -tree bk.index serves it as
#     the federation network "bk";
#   - the pprof sidecar answers on its own listener;
#   - tcquery -server round-trips against the running server;
#   - tcquery -tree streams without a server (its in-process one), and the
#     removed -cache flag is a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building tools"
go build -o "$workdir/tcgen" ./cmd/tcgen
go build -o "$workdir/tcindex" ./cmd/tcindex
go build -o "$workdir/tcserver" ./cmd/tcserver
go build -o "$workdir/tcquery" ./cmd/tcquery

echo "== generating and indexing a dataset"
"$workdir/tcgen" -dataset BK -scale 0.1 -out "$workdir/bk.dbnet"
"$workdir/tcindex" -in "$workdir/bk.dbnet" -out "$workdir/bk.index"

# Bind both listeners to :0 — the kernel picks free ports, so the smoke test
# never collides with whatever else runs on the CI host. tcserver listens
# before logging "listening on <actual address>", so the log line doubles as
# the readiness signal: once it appears the port is accepting.
echo "== starting tcserver on 127.0.0.1:0 (pprof on 127.0.0.1:0)"
"$workdir/tcserver" -tree "$workdir/bk.index" -net "$workdir/bk.dbnet" \
  -addr "127.0.0.1:0" -pprof "127.0.0.1:0" -slowquery 1ns \
  >"$workdir/server.out" 2>"$workdir/server.log" &
server_pid=$!

addr=""
pprof_addr=""
for i in $(seq 1 50); do
  addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/server.log" | head -1)
  pprof_addr=$(sed -n 's|.*pprof listening on http://\(127\.0\.0\.1:[0-9]*\)/.*|\1|p' "$workdir/server.log" | head -1)
  if [ -n "$addr" ] && [ -n "$pprof_addr" ]; then break; fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "tcserver died:" >&2; cat "$workdir/server.log" >&2; exit 1
  fi
  sleep 0.2
done
if [ -z "$addr" ] || [ -z "$pprof_addr" ]; then
  echo "tcserver never logged its listeners:" >&2; cat "$workdir/server.log" >&2; exit 1
fi
echo "== bound: api $addr, pprof $pprof_addr"

fail() { echo "FAIL: $1" >&2; cat "$workdir/server.log" >&2; exit 1; }

echo "== health"
health=$(curl -sf "http://$addr/healthz")
echo "$health" | grep -q '"status":"ok"' || fail "/healthz not ok: $health"
echo "$health" | grep -q '"ready":true' || fail "/healthz reports no ready network: $health"
echo "$health" | grep -q '"name":"bk"' || fail "/healthz does not name the -tree network bk: $health"

echo "== -tree serves a one-network federation"
networks=$(curl -sf "http://$addr/api/v1/networks")
echo "$networks" | grep -q '"default":"bk"' || fail "/api/v1/networks default is not bk: $networks"
echo "$networks" | grep -q '"name":"bk"' || fail "/api/v1/networks does not list bk: $networks"

echo "== query with injected X-Request-ID"
reqid="smoke-req-42"
headers=$(curl -sf -D - -o "$workdir/query.json" \
  -H "X-Request-ID: $reqid" "http://$addr/api/v1/query?alpha=0.2")
echo "$headers" | grep -qi "x-request-id: $reqid" \
  || fail "response does not echo X-Request-ID: $headers"
grep -q '"communities"' "$workdir/query.json" || fail "query answered nothing"

# A second identical query exercises the cache-hit path.
curl -sf "http://$addr/api/v1/query?alpha=0.2" >/dev/null

echo "== access log carries the request ID"
grep -q "$reqid" "$workdir/server.log" \
  || fail "request ID $reqid not in the access log"

echo "== one update (the server runs with -net, so it accepts them)"
curl -sf -X POST "http://$addr/api/v1/update" \
  -d '{"addTransactions":[{"vertex":0,"items":["hangout-c1-0"]}]}' >"$workdir/update.json" \
  || fail "update was refused"
grep -q '"network":"bk"' "$workdir/update.json" || fail "update answered: $(cat "$workdir/update.json")"

echo "== scrape /metrics and assert counters moved"
curl -sf "http://$addr/metrics" >"$workdir/metrics.txt"
for family in tc_queries_total tc_query_duration_seconds \
  tc_query_stage_duration_seconds tc_http_requests_total \
  tc_http_request_duration_seconds tc_engine_queries_total \
  tc_engine_shards tc_cache_hits_total tc_slow_queries_total \
  tc_update_apply_duration_seconds tc_engine_delta_edges_total; do
  grep -q "^# TYPE $family " "$workdir/metrics.txt" \
    || fail "family $family missing from /metrics"
done
grep -Eq 'tc_queries_total\{network="bk",result="miss"\} [1-9]' "$workdir/metrics.txt" \
  || fail "tc_queries_total miss did not move"
grep -Eq 'tc_queries_total\{network="bk",result="hit"\} [1-9]' "$workdir/metrics.txt" \
  || fail "tc_queries_total hit did not move (cache-hit path)"
grep -Eq 'tc_http_requests_total\{route="/api/v1/query",method="GET",code="200"\} [1-9]' "$workdir/metrics.txt" \
  || fail "tc_http_requests_total did not move"
grep -Eq 'tc_engine_queries_total\{network="bk"\} [1-9]' "$workdir/metrics.txt" \
  || fail "tc_engine_queries_total did not move"
# The first query opened a cold lazy index, so it read shards from disk.
grep -Eq 'tc_query_stage_duration_seconds_count\{network="bk",stage="load"\} [1-9]' "$workdir/metrics.txt" \
  || fail "tc_query_stage_duration_seconds{stage=\"load\"} did not count the first query's shard loads"
# Both answers were encoded, the cache hit included.
grep -Eq 'tc_query_stage_duration_seconds_count\{network="bk",stage="encode"\} ([2-9]|[1-9][0-9])' "$workdir/metrics.txt" \
  || fail "tc_query_stage_duration_seconds{stage=\"encode\"} did not count both answers"

# The update's in-memory apply (scope, rebuild, swap) was observed once.
grep -Eq 'tc_update_apply_duration_seconds_count\{network="bk"\} 1$' "$workdir/metrics.txt" \
  || fail "tc_update_apply_duration_seconds did not count the update"
# It re-peeled only the communities its vertex touches: the rebuilt nodes
# carried the rest of their levels over.
grep -Eq 'tc_engine_delta_edges_total\{network="bk",kind="carried"\} [1-9]' "$workdir/metrics.txt" \
  || fail "tc_engine_delta_edges_total{kind=\"carried\"} did not move"

echo "== slow-query log captured the query"
slowlog=$(curl -sf "http://$addr/api/v1/slowlog")
echo "$slowlog" | grep -q "\"requestId\":\"$reqid\"" \
  || fail "slow log does not carry request ID $reqid: $slowlog"
echo "$slowlog" | grep -q '"plan"' || fail "slow log entry has no plan: $slowlog"

echo "== explain: the plan carries no cost model, the schedule is ascending"
explain=$(curl -sf "http://$addr/api/v1/explain?alpha=0")
if echo "$explain" | grep -Eq '"(totalCost|cost)":'; then
  fail "explain still reports cost estimates: $explain"
fi
order=$(echo "$explain" | sed -n 's/.*"scheduleOrder":\[\([0-9,]*\)\].*/\1/p')
[ -n "$order" ] || fail "explain at alpha=0 scheduled nothing: $explain"
echo "$order" | tr ',' '\n' | sort -n -c 2>/dev/null \
  || fail "explain scheduleOrder is not ascending: $order"

echo "== pprof sidecar"
curl -sf "http://$pprof_addr/debug/pprof/cmdline" >/dev/null \
  || fail "pprof listener not answering on $pprof_addr"

echo "== NDJSON streaming (?stream=1)"
curl -sf "http://$addr/api/v1/query?alpha=0.2&stream=1" >"$workdir/stream.ndjson"
head -1 "$workdir/stream.ndjson" | grep -q '"type":"header"' \
  || fail "stream does not open with a header line: $(head -1 "$workdir/stream.ndjson")"
tail -1 "$workdir/stream.ndjson" | grep -q '"type":"trailer"' \
  || fail "stream does not close with a trailer line: $(tail -1 "$workdir/stream.ndjson")"
grep -q '"type":"community"' "$workdir/stream.ndjson" || fail "stream carried no communities"

echo "== cursor pagination walks the answer"
page=$(curl -sf "http://$addr/api/v1/query?alpha=0.2&limit=1")
echo "$page" | grep -q '"nextCursor"' || fail "limited page minted no cursor: $page"
cur=$(echo "$page" | sed -n 's/.*"nextCursor":"\([^"]*\)".*/\1/p')
curl -sf "http://$addr/api/v1/query?limit=1&cursor=$cur" | grep -q '"communities"' \
  || fail "cursor resume returned no page"

echo "== tcquery -server -stream round trip"
out=$("$workdir/tcquery" -server "http://$addr" -alpha 0.2 -stream)
echo "$out" | grep -q "streaming communities" || fail "tcquery -stream printed no header: $out"
echo "$out" | grep -Eq "stream complete in [0-9]+µs: [1-9][0-9]* communities" \
  || fail "tcquery -stream did not complete: $out"

echo "== tcquery -server round trip"
out=$("$workdir/tcquery" -server "http://$addr" -alpha 0.2 -requestid smoke-cli-1)
echo "$out" | grep -q "request id smoke-cli-1" \
  || fail "tcquery -server did not report the request ID: $out"
echo "$out" | grep -q "theme communities" || fail "tcquery -server answered nothing: $out"

echo "== tcquery -server error path reports the server-assigned request ID"
if err=$("$workdir/tcquery" -server "http://$addr" -network nosuch -alpha 0.2 2>&1); then
  fail "query against unknown network should fail: $err"
fi
echo "$err" | grep -Eq "request id [a-z0-9]+" \
  || fail "error does not carry a server-assigned request ID: $err"

echo "== tcquery -tree local mode streams without -server"
out=$("$workdir/tcquery" -tree "$workdir/bk.index" -alpha 0.2 -stream)
echo "$out" | grep -q "streaming communities from $workdir/bk.index" \
  || fail "tcquery -tree -stream printed no header: $out"
echo "$out" | grep -Eq "stream complete in [0-9]+µs: [1-9][0-9]* communities" \
  || fail "tcquery -tree -stream did not complete: $out"
status=0
"$workdir/tcquery" -tree "$workdir/bk.index" -cache 1 >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || fail "tcquery -cache 1 exited $status, want 2 (flag removed)"

echo "PASS: observability smoke"
