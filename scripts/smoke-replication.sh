#!/usr/bin/env bash
# End-to-end replication smoke test: one primary, two replicas, real
# processes over real HTTP.
#
#   - tcserver -journal starts a primary whose updates are journaled and
#     applied in memory (checkpoints fold them into the on-disk index);
#   - two replicas bootstrap from a plain file copy of the primary's
#     networks directory and tail GET /api/v1/journal;
#   - updates POSTed to the primary (through tcupdate -server) reach both
#     replicas: /healthz converges to lagRecords 0 at the primary's seq;
#   - converged replicas answer queries byte-identically to the primary
#     (after stripping the volatile queryMicros timing field);
#   - a write to a replica answers 403 with a Location header naming the
#     primary;
#   - the journal feed itself serves the records as NDJSON;
#   - an update introducing a new item name reaches both replicas with the
#     name: they answer a query by that name exactly as the primary does;
#   - the primary survives a kill -9: restart recovers from journal +
#     checkpoint stamps, the replicas' tailers reconnect, and a post-restart
#     update still converges everywhere;
#   - an offline tcupdate on the stopped primary's files is refused: their
#     stamps count in the -journal journal, not in the default journal
#     beside the index that tcupdate opens; the files stay as they were, and
#     the next -journal start recovers with nothing to replay and still
#     answers like the replicas.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building tools"
go build -o "$workdir/tcgen" ./cmd/tcgen
go build -o "$workdir/tcindex" ./cmd/tcindex
go build -o "$workdir/tcserver" ./cmd/tcserver
go build -o "$workdir/tcupdate" ./cmd/tcupdate

echo "== generating and indexing the bk network"
"$workdir/tcgen" -dataset BK -scale 0.1 -out "$workdir/bk.dbnet"
mkdir -p "$workdir/primary"
"$workdir/tcindex" -in "$workdir/bk.dbnet" -out "$workdir/primary/bk.index"
cp "$workdir/bk.dbnet" "$workdir/primary/bk.dbnet"

# Replicas bootstrap from a file copy of the primary's networks directory:
# the snapshot. Everything after it arrives through the journal feed.
cp -r "$workdir/primary" "$workdir/replica1"
cp -r "$workdir/primary" "$workdir/replica2"

# start_server <name> <tcserver flags...>: starts a server, waits for its
# "listening on" line, and leaves the bound address in $ADDR and the pid in
# $SERVER_PID.
start_server() {
  local name=$1; shift
  "$workdir/tcserver" "$@" -quiet >"$workdir/$name.out" 2>"$workdir/$name.log" &
  SERVER_PID=$!
  pids+=("$SERVER_PID")
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/$name.log" | head -1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "$name died:" >&2; cat "$workdir/$name.log" >&2; exit 1
    fi
    sleep 0.2
  done
  if [ -z "$ADDR" ]; then
    echo "$name never logged its listener:" >&2; cat "$workdir/$name.log" >&2; exit 1
  fi
  echo "== $name listening on $ADDR"
}

start_server primary -networks "$workdir/primary" -journal "$workdir/wal" \
  -checkpoint 500ms -addr 127.0.0.1:0
primary_addr=$ADDR
primary_pid=$SERVER_PID

update() { # update <vertex:items tx> — POST one delta to the primary
  "$workdir/tcupdate" -server "http://$primary_addr" -network bk -addtx "$1" \
    | tee -a "$workdir/updates.out"
}

echo "== journaled update before the replicas exist (replayed from the feed)"
update "0:1,2"
grep -q "journal seq:     1" "$workdir/updates.out" || {
  echo "update response carried no journal seq:" >&2
  cat "$workdir/updates.out" >&2; exit 1
}

start_server replica1 -networks "$workdir/replica1" \
  -replicaof "http://$primary_addr" -checkpoint 500ms -addr 127.0.0.1:0
r1_addr=$ADDR
start_server replica2 -networks "$workdir/replica2" \
  -replicaof "http://$primary_addr" -checkpoint 500ms -addr 127.0.0.1:0
r2_addr=$ADDR

# wait_caught_up <addr> <seq>: poll /healthz until the replica reports
# lagRecords 0 at the wanted journal seq.
wait_caught_up() {
  for _ in $(seq 1 150); do
    if python3 - "$1" "$2" <<'PY' 2>/dev/null
import json, sys, urllib.request
addr, want = sys.argv[1], int(sys.argv[2])
h = json.load(urllib.request.urlopen(f"http://{addr}/healthz", timeout=5))
r = h.get("replication") or {}
sys.exit(0 if r.get("lagRecords") == 0 and r.get("journalSeq") == want else 1)
PY
    then return 0; fi
    sleep 0.2
  done
  echo "replica $1 never converged to seq $2:" >&2
  curl -s "http://$1/healthz" >&2 || true
  exit 1
}

echo "== waiting for both replicas to replay the snapshot gap (seq 1)"
wait_caught_up "$r1_addr" 1
wait_caught_up "$r2_addr" 1

echo "== live update while the replicas tail (seq 2)"
update "1:2,3"
wait_caught_up "$r1_addr" 2
wait_caught_up "$r2_addr" 2

# same_answers <path> <addr> <addr>...: every server's answer must be
# byte-identical to the first one's after dropping the volatile timing field.
same_answers() {
  python3 - "$@" <<'PY'
import json, sys, urllib.request
path, first, others = sys.argv[1], sys.argv[2], sys.argv[3:]
def fetch(addr):
    d = json.load(urllib.request.urlopen(f"http://{addr}{path}", timeout=10))
    d.pop("queryMicros", None)
    return json.dumps(d, sort_keys=True)
want = fetch(first)
for addr in others:
    got = fetch(addr)
    if got != want:
        print(f"answer diverges on {addr}{path}\n {first}: {want}\n {addr}: {got}", file=sys.stderr)
        sys.exit(1)
PY
  echo "   identical answers for $1"
}

# compare <path>: the primary's answer and both replicas' answers.
compare() { same_answers "$1" "$primary_addr" "$r1_addr" "$r2_addr"; }

echo "== replicas answer byte-identically to the primary"
compare "/api/v1/bk/query?alpha=0"
compare "/api/v1/bk/query?pattern=1,2&alpha=0"
compare "/api/v1/bk/query?alpha=0&k=5"

echo "== a write to a replica is rejected with 403 + Location"
code=$(curl -s -D "$workdir/403.hdr" -o "$workdir/403.out" \
  -X POST -d '{"addTransactions":[{"vertex":0,"items":["1"]}]}' \
  "http://$r1_addr/api/v1/bk/update")
grep -q "^HTTP/1.1 403" "$workdir/403.hdr" || {
  echo "replica write was not 403:" >&2; cat "$workdir/403.hdr" "$workdir/403.out" >&2; exit 1
}
grep -qi "^Location: http://$primary_addr/api/v1/bk/update" "$workdir/403.hdr" || {
  echo "replica 403 carried no Location to the primary:" >&2; cat "$workdir/403.hdr" >&2; exit 1
}
grep -q '"error"' "$workdir/403.out" || {
  echo "replica 403 carried no JSON error envelope:" >&2; cat "$workdir/403.out" >&2; exit 1
}

echo "== the journal feed serves the records as NDJSON"
curl -s "http://$primary_addr/api/v1/journal?from=0" >"$workdir/journal.ndjson"
records=$(grep -c '"type":"record"' "$workdir/journal.ndjson")
[ "$records" -eq 2 ] || {
  echo "journal feed served $records records, want 2:" >&2
  cat "$workdir/journal.ndjson" >&2; exit 1
}
grep -q '"type":"head"' "$workdir/journal.ndjson" || {
  echo "journal feed missing the head frame:" >&2; cat "$workdir/journal.ndjson" >&2; exit 1
}

echo "== an update introducing a new item name names it on the replicas too (seq 3)"
update "1:espresso,2;2:espresso,3"
wait_caught_up "$r1_addr" 3
wait_caught_up "$r2_addr" 3
compare "/api/v1/bk/query?pattern=espresso&alpha=0"
compare "/api/v1/bk/query?pattern=espresso,2,3&alpha=0"

echo "== primary crash (kill -9) and recovery"
kill -9 "$primary_pid"
wait "$primary_pid" 2>/dev/null || true
start_server primary-restarted -networks "$workdir/primary" -journal "$workdir/wal" \
  -checkpoint 500ms -addr "$primary_addr"
primary_pid=$SERVER_PID
grep -q "recovery replayed" "$workdir/primary-restarted.log" || {
  echo "restarted primary did not report journal recovery:" >&2
  cat "$workdir/primary-restarted.log" >&2; exit 1
}

echo "== post-restart update converges on the reconnected replicas (seq 4)"
update "2:1,4"
wait_caught_up "$r1_addr" 4
wait_caught_up "$r2_addr" 4
compare "/api/v1/bk/query?alpha=0"
compare "/api/v1/bk/query?alpha=0&k=5"
compare "/api/v1/bk/query?pattern=espresso,2,3&alpha=0"

echo "== an offline tcupdate on files stamped under -journal is refused"
# Wait for the background checkpoint to flush the journal head, so the files
# hold everything and the journal tail is empty; then stop the primary.
for _ in $(seq 1 150); do
  if python3 - "$primary_addr" <<'PY' 2>/dev/null
import json, sys, urllib.request
h = json.load(urllib.request.urlopen(f"http://{sys.argv[1]}/healthz", timeout=5))
r = h["replication"]
sys.exit(0 if r["networks"]["bk"]["flushedSeq"] == r["journalSeq"] == 4 else 1)
PY
  then flushed=1; break; fi
  sleep 0.2
done
[ -n "${flushed:-}" ] || {
  echo "the primary never flushed seq 4:" >&2; curl -s "http://$primary_addr/healthz" >&2 || true; exit 1
}
kill -9 "$primary_pid"
wait "$primary_pid" 2>/dev/null || true
cp "$workdir/primary/bk.dbnet" "$workdir/bk.dbnet.flushed"
if "$workdir/tcupdate" -net "$workdir/primary/bk.dbnet" -index "$workdir/primary/bk.index" \
  -addtx "3:1,2" 2>"$workdir/offline.err"; then
  echo "an offline tcupdate on files stamped under -journal succeeded" >&2; exit 1
fi
grep -q "beyond the head" "$workdir/offline.err" || {
  echo "the offline tcupdate failed for another reason:" >&2; cat "$workdir/offline.err" >&2; exit 1
}
cmp -s "$workdir/primary/bk.dbnet" "$workdir/bk.dbnet.flushed" || {
  echo "the refused offline tcupdate changed the network file" >&2; exit 1
}
start_server primary-after-offline -networks "$workdir/primary" -journal "$workdir/wal" \
  -checkpoint 500ms -addr "$primary_addr"
grep -q "recovery replayed 0" "$workdir/primary-after-offline.log" || {
  echo "the journaled restart after the refused offline update replayed records:" >&2
  cat "$workdir/primary-after-offline.log" >&2; exit 1
}
compare "/api/v1/bk/query?alpha=0"
compare "/api/v1/bk/query?pattern=1,2&alpha=0"

echo "== replication smoke test passed"
