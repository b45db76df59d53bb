#!/usr/bin/env bash
# scale-out-smoke: Elastic scale-out PageRank (serve + 2 workers, join a third mid-run, drain one after).
# Usage: bash scripts/smoke/scale-out.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
python3 - <<'EOF2' > graph.txt
import random
random.seed(13)
n = 20000
for v in range(1, n + 1):
    out = sorted(random.sample(range(1, n + 1), 5))
    print(f"{v}\t" + " ".join(str(d) for d in out))
EOF2
"$BIN" serve -listen 127.0.0.1:18082 -workers 2 -cluster-listen 127.0.0.1:19092 &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19092 -nodes 2 &
W1=$!
"$BIN" worker -cc 127.0.0.1:19092 -nodes 2 &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18082/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18082/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr","iterations":40}' \
     http://127.0.0.1:18082/jobs
# Join an elastic third worker as soon as the job is past its
# first superstep: the coordinator must migrate partitions onto
# it mid-job. 40 iterations leave a worker that registers about
# a second after it was started a running job to meet.
JOINED=0
STATE=queued
for i in $(seq 1 600); do
  JOB=$(curl -sf http://127.0.0.1:18082/jobs/1)
  SS=$(echo "$JOB" | python3 -c 'import json,sys; print(json.load(sys.stdin).get("supersteps") or 0)')
  STATE=$(echo "$JOB" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  if [ "$JOINED" = 0 ] && [ "$SS" -ge 1 ]; then
    "$BIN" worker -cc 127.0.0.1:19092 -nodes 2 -drain &
    W3=$!
    JOINED=1
  fi
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { echo "$JOB"; exit 1; }
  sleep 0.2
done
[ "$STATE" = done ]
[ "$JOINED" = 1 ]
REBALANCES=$(curl -sf http://127.0.0.1:18082/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin).get("rebalances") or 0)')
[ "$REBALANCES" -ge 1 ]
LINES=$(curl -sf http://127.0.0.1:18082/files/out/pr | wc -l)
[ "$LINES" = 20000 ]
# Topology shows three workers with a scale-out event...
curl -s http://127.0.0.1:18082/scale
WORKERS=$(curl -sf http://127.0.0.1:18082/scale | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["workers"]))')
[ "$WORKERS" = 3 ]
SCALEOUTS=$(curl -sf http://127.0.0.1:18082/scale | python3 -c 'import json,sys; print(sum(1 for e in json.load(sys.stdin)["events"] if e["kind"] == "scale-out"))')
[ "$SCALEOUTS" -ge 1 ]
# ...then gracefully drain the joiner (SIGTERM + -drain): its
# partitions migrate back and the process exits cleanly.
kill -TERM $W3
for i in $(seq 1 60); do
  WORKERS=$(curl -sf http://127.0.0.1:18082/scale | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["workers"]))')
  [ "$WORKERS" = 2 ] && break
  sleep 1
done
[ "$WORKERS" = 2 ]
wait $W3
DRAINS=$(curl -sf http://127.0.0.1:18082/scale | python3 -c 'import json,sys; print(sum(1 for e in json.load(sys.stdin)["events"] if e["kind"] == "drain"))')
[ "$DRAINS" -ge 1 ]
# The resized cluster still runs jobs.
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr2","iterations":3}' \
     http://127.0.0.1:18082/jobs
for i in $(seq 1 600); do
  STATE=$(curl -sf http://127.0.0.1:18082/jobs/2 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18082/jobs/2; exit 1; }
  sleep 0.2
done
[ "$STATE" = done ]
curl -s http://127.0.0.1:18082/stats
kill $W1 $W2 $SERVE || true
