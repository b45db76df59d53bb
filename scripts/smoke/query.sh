#!/usr/bin/env bash
# query-smoke: Always-on queries (serve + 2 workers, point/top-k/k-hop vs dump).
# Usage: bash scripts/smoke/query.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
python3 - <<'EOF' > graph.txt
import random
random.seed(17)
n = 2000
for v in range(1, n + 1):
    out = sorted(random.sample(range(1, n + 1), 4))
    print(f"{v}\t" + " ".join(str(d) for d in out))
EOF
"$BIN" serve -listen 127.0.0.1:18083 -workers 2 -cluster-listen 127.0.0.1:19093 &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19093 -nodes 2 &
W1=$!
"$BIN" worker -cc 127.0.0.1:19093 -nodes 2 &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18083/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18083/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr","iterations":4}' \
     http://127.0.0.1:18083/jobs
STATE=queued
for i in $(seq 1 600); do
  STATE=$(curl -sf http://127.0.0.1:18083/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18083/jobs/1; exit 1; }
  sleep 0.2
done
[ "$STATE" = done ]
curl -sf http://127.0.0.1:18083/files/out/pr > dump.txt
# Point reads must answer 200 with the exact dumped value,
# served from the workers' sealed B-trees (not the dump).
for VID in 1 7 500 2000; do
  curl -sf http://127.0.0.1:18083/jobs/1/vertices/$VID > point.json
  QV=$(python3 -c 'import json; print(json.load(open("point.json"))["value"])')
  DV=$(awk -F'\t' -v v=$VID '$1 == v {print $2}' dump.txt)
  [ "$QV" = "$DV" ]
done
# Top-k: 200, k entries, and the head entry is the dump's maximum.
curl -sf 'http://127.0.0.1:18083/jobs/1/topk?by=value&k=5' > topk.json
python3 - <<'EOF'
import json
top = json.load(open("topk.json"))
assert len(top["entries"]) == 5, top
best = max((float(l.split("\t")[1]), int(l.split("\t")[0]))
           for l in open("dump.txt") if l.strip())
head = top["entries"][0]
assert float(head["value"]) == best[0] and head["vid"] == best[1], (head, best)
EOF
# K-hop expansion answers 200 with a non-empty neighborhood.
curl -sf 'http://127.0.0.1:18083/jobs/1/neighbors/1?hops=2' > khop.json
python3 -c 'import json; k = json.load(open("khop.json")); assert k["found"] and k["total"] > 0, k'
# Missing vertex and bad parameters surface the documented codes.
CODE=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18083/jobs/1/vertices/999999999)
[ "$CODE" = 404 ]
CODE=$(curl -s -o /dev/null -w '%{http_code}' 'http://127.0.0.1:18083/jobs/1/topk?by=rank')
[ "$CODE" = 400 ]
kill $W1 $W2 $SERVE || true
