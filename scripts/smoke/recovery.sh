#!/usr/bin/env bash
# recovery-smoke: Kill-and-recover PageRank (serve + 2 workers, SIGKILL one mid-run).
# Usage: bash scripts/smoke/recovery.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
python3 - <<'EOF' > graph.txt
import random
random.seed(11)
n = 20000
for v in range(1, n + 1):
    out = sorted(random.sample(range(1, n + 1), 5))
    print(f"{v}\t" + " ".join(str(d) for d in out))
EOF
"$BIN" serve -listen 127.0.0.1:18081 -workers 2 -cluster-listen 127.0.0.1:19091 &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19091 -nodes 2 &
W1=$!
"$BIN" worker -cc 127.0.0.1:19091 -nodes 2 &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18081/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18081/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr","iterations":30,"checkpointEvery":2}' \
     http://127.0.0.1:18081/jobs
# SIGKILL worker 2 once superstep >= 3 (the superstep-2
# checkpoint has committed); the job must still complete.
KILLED=0
STATE=queued
for i in $(seq 1 600); do
  JOB=$(curl -sf http://127.0.0.1:18081/jobs/1)
  SS=$(echo "$JOB" | python3 -c 'import json,sys; print(json.load(sys.stdin).get("supersteps") or 0)')
  STATE=$(echo "$JOB" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  if [ "$KILLED" = 0 ] && [ "$SS" -ge 3 ]; then
    kill -9 $W2
    KILLED=1
  fi
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { echo "$JOB"; exit 1; }
  sleep 0.2
done
[ "$STATE" = done ]
[ "$KILLED" = 1 ]
RECOVERIES=$(curl -sf http://127.0.0.1:18081/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin).get("recoveries") or 0)')
[ "$RECOVERIES" -ge 1 ]
LINES=$(curl -sf http://127.0.0.1:18081/files/out/pr | wc -l)
[ "$LINES" = 20000 ]
curl -s http://127.0.0.1:18081/stats
kill $W1 $SERVE || true
