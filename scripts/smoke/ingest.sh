#!/usr/bin/env bash
# ingest-smoke: Streaming ingest (serve + 2 workers, POST mutations, re-query).
# Usage: bash scripts/smoke/ingest.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
python3 - <<'EOF' > graph.txt
import random
random.seed(23)
n = 2000
for v in range(1, n + 1):
    out = sorted(random.sample(range(1, n + 1), 4))
    print(f"{v}\t" + " ".join(str(d) for d in out))
EOF
"$BIN" serve -listen 127.0.0.1:18084 -workers 2 -cluster-listen 127.0.0.1:19094 &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19094 -nodes 2 &
W1=$!
"$BIN" worker -cc 127.0.0.1:19094 -nodes 2 &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18084/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18084/files/in/g
curl -sf -X POST -d '{"algorithm":"deltapagerank","input":"/in/g","epsilon":1e-9}' \
     http://127.0.0.1:18084/jobs
STATE=queued
for i in $(seq 1 600); do
  STATE=$(curl -sf http://127.0.0.1:18084/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18084/jobs/1; exit 1; }
  sleep 0.2
done
[ "$STATE" = done ]
# Pre-delta rank of the funnel target, from the sealed B-trees.
BEFORE=$(curl -sf http://127.0.0.1:18084/jobs/1/vertices/7 | python3 -c 'import json,sys; print(json.load(sys.stdin)["value"])')
# Stream one NDJSON mutation batch: funnel 20 new edges into
# vertex 7 and add a brand-new vertex wired into the graph.
python3 - <<'EOF' > batch.ndjson
for src in range(100, 120):
    print('{"op":"addEdge","id":%d,"dst":7}' % src)
print('{"op":"addVertex","id":999999,"value":0.001}')
print('{"op":"addEdge","id":999999,"dst":7}')
EOF
SEQ=$(curl -sf -X POST --data-binary @batch.ndjson http://127.0.0.1:18084/jobs/1/mutations | python3 -c 'import json,sys; print(json.load(sys.stdin)["seq"])')
[ "$SEQ" -ge 1 ]
# A malformed batch is rejected up front with 400.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"op":"warp","id":1}' http://127.0.0.1:18084/jobs/1/mutations)
[ "$CODE" = 400 ]
# Poll the job view until the background refresher has folded
# the batch into a sealed @d version.
OK=0
for i in $(seq 1 600); do
  VIEW=$(curl -sf http://127.0.0.1:18084/jobs/1)
  ERR=$(echo "$VIEW" | python3 -c 'import json,sys; print(json.load(sys.stdin).get("deltaError") or "")')
  [ -n "$ERR" ] && { echo "$VIEW"; exit 1; }
  OK=$(echo "$VIEW" | python3 -c "import json,sys; j=json.load(sys.stdin); print(int(j.get('deltaSeq', 0) >= $SEQ and not j.get('refreshing', False)))")
  [ "$OK" = 1 ] && break
  sleep 0.2
done
[ "$OK" = 1 ]
curl -sf http://127.0.0.1:18084/jobs/1 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert "@d" in j["version"], j'
# Point reads now serve the refreshed version: the funnel
# target's rank rose and the added vertex answers.
AFTER=$(curl -sf http://127.0.0.1:18084/jobs/1/vertices/7 | python3 -c 'import json,sys; print(json.load(sys.stdin)["value"])')
python3 -c "assert float('$AFTER') > float('$BEFORE'), ('$BEFORE', '$AFTER')"
curl -sf http://127.0.0.1:18084/jobs/1/vertices/999999 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j["found"], j'
kill $W1 $W2 $SERVE || true
