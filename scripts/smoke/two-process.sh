#!/usr/bin/env bash
# two-process-smoke: Two-process PageRank (serve + worker on loopback).
# Usage: bash scripts/smoke/two-process.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
python3 - <<'EOF' > graph.txt
import random
random.seed(7)
n = 60
for v in range(1, n + 1):
    out = sorted(random.sample(range(1, n + 1), 3))
    print(f"{v}\t" + " ".join(str(d) for d in out))
EOF
"$BIN" serve -listen 127.0.0.1:18080 -workers 1 -cluster-listen 127.0.0.1:19090 &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19090 -nodes 2 &
WORKER=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18080/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18080/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr","iterations":3}' \
     http://127.0.0.1:18080/jobs
for i in $(seq 1 120); do
  STATE=$(curl -sf http://127.0.0.1:18080/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18080/jobs/1; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
curl -sf http://127.0.0.1:18080/files/out/pr | head -5
LINES=$(curl -sf http://127.0.0.1:18080/files/out/pr | wc -l)
[ "$LINES" = 60 ]
kill $WORKER $SERVE
