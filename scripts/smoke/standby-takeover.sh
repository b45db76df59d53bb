#!/usr/bin/env bash
# standby-takeover-smoke: Standby controller takeover (primary + -standby-cc on one state dir, SIGKILL primary).
# Usage: bash scripts/smoke/standby-takeover.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
python3 - <<'EOF' > graph.txt
import random
random.seed(13)
n = 3000
for v in range(1, n + 1):
    out = sorted(random.sample(range(1, n + 1), 4))
    print(f"{v}\t" + " ".join(str(d) for d in out))
EOF
mkdir -p ccstate
"$BIN" serve -listen 127.0.0.1:18086 -workers 2 -cluster-listen 127.0.0.1:19096 \
                 -state-dir ccstate -lease-interval 300ms -replace-wait 60s &
PRIMARY=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19096 -nodes 2 -rejoin -rejoin-wait 200ms &
W1=$!
"$BIN" worker -cc 127.0.0.1:19096 -nodes 2 -rejoin -rejoin-wait 200ms &
W2=$!
# The warm standby parks on the lease; it binds the same
# control-plane port only after taking over.
"$BIN" serve -listen 127.0.0.1:18087 -workers 2 -cluster-listen 127.0.0.1:19096 \
                 -state-dir ccstate -lease-interval 300ms -replace-wait 60s -standby-cc &
STANDBY=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18086/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18086/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","name":"pr-ha","input":"/in/g","output":"/out/pr","iterations":4}' \
     http://127.0.0.1:18086/jobs
for i in $(seq 1 120); do
  STATE=$(curl -sf http://127.0.0.1:18086/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18086/jobs/1; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
curl -sf http://127.0.0.1:18086/files/out/pr > before.txt
BEFORE=$(curl -sf http://127.0.0.1:18086/jobs/1/vertices/1 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j["found"], j; print(j["value"])')
# Kill the primary without warning. The standby notices the
# stale lease (3 missed 300ms renewals) and assumes the role.
kill -9 $PRIMARY
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18087/healthz && break
  sleep 1
done
# Registry, files and the sealed query tier all survived.
curl -sf http://127.0.0.1:18087/jobs/1 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j["state"] == "done", j'
curl -sf http://127.0.0.1:18087/files/out/pr > after.txt
cmp before.txt after.txt
AFTER=$(curl -sf http://127.0.0.1:18087/jobs/1/vertices/1 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j["found"], j; print(j["value"])')
[ "$BEFORE" = "$AFTER" ]
# And the new controller schedules fresh work.
curl -sf -X POST -d '{"algorithm":"cc","name":"cc-ha","input":"/in/g","output":"/out/cc"}' \
     http://127.0.0.1:18087/jobs
for i in $(seq 1 120); do
  STATE=$(curl -sf http://127.0.0.1:18087/jobs/2 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18087/jobs/2; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
kill $W1 $W2 $STANDBY || true
