#!/usr/bin/env bash
# coordinator-restart-smoke: Coordinator kill-and-restart (serve + 2 workers, SIGKILL coordinator mid-run, restart on same -state-dir).
# Usage: bash scripts/smoke/coordinator-restart.sh <pregelix binary>   (e.g. ./pregelix)
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
mkdir -p ccstate
SERVE_ARGS="-listen 127.0.0.1:18085 -workers 2 -cluster-listen 127.0.0.1:19095 -state-dir ccstate -lease-interval 300ms -replace-wait 60s"
"$BIN" serve $SERVE_ARGS &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19095 -nodes 2 -rejoin -rejoin-wait 200ms &
W1=$!
"$BIN" worker -cc 127.0.0.1:19095 -nodes 2 -rejoin -rejoin-wait 200ms &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18085/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18085/files/in/g
# Failure-free baseline; its completion also seals a query version.
curl -sf -X POST -d '{"algorithm":"pagerank","name":"pr-clean","input":"/in/g","output":"/out/clean","iterations":30,"checkpointEvery":2}' \
     http://127.0.0.1:18085/jobs
for i in $(seq 1 180); do
  STATE=$(curl -sf http://127.0.0.1:18085/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18085/jobs/1; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
curl -sf http://127.0.0.1:18085/files/out/clean > clean.txt
# Chaos run: SIGKILL the coordinator once the superstep-2
# checkpoint is committed and superstep 3+ is in flight.
curl -sf -X POST -d '{"algorithm":"pagerank","name":"pr-chaos","input":"/in/g","output":"/out/chaos","iterations":30,"checkpointEvery":2}' \
     http://127.0.0.1:18085/jobs
for i in $(seq 1 600); do
  SS=$(curl -sf http://127.0.0.1:18085/jobs/2 | python3 -c 'import json,sys; print(json.load(sys.stdin).get("supersteps", 0))')
  [ "$SS" -ge 3 ] && break
  sleep 0.2
done
[ "$SS" -ge 3 ]
kill -9 $SERVE
# Restart against the same state dir: the new process waits out
# the dead holder's lease, re-adopts the rejoining workers, and
# resumes the interrupted job from its last checkpoint manifest.
"$BIN" serve $SERVE_ARGS &
SERVE=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18085/healthz && break
  sleep 1
done
for i in $(seq 1 180); do
  STATE=$(curl -sf http://127.0.0.1:18085/jobs/2 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18085/jobs/2; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
# The resume came from the checkpoint manifest, not a re-run.
curl -sf http://127.0.0.1:18085/jobs/2 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j.get("recoveries", 0) > 0, j'
curl -sf http://127.0.0.1:18085/files/out/chaos > chaos.txt
python3 - <<'EOF'
def parse(p):
    m = {}
    for line in open(p):
        f = line.rstrip("\n").split("\t")
        m[f[0]] = float(f[1])
    return m
a, b = parse("clean.txt"), parse("chaos.txt")
assert a.keys() == b.keys(), (len(a), len(b))
for k in a:
    assert abs(a[k] - b[k]) <= 1e-6 * max(abs(a[k]), abs(b[k]), 1e-300), (k, a[k], b[k])
print("parity ok:", len(a), "vertices")
EOF
# The pre-kill job survived the restart: registry says done and
# its sealed query version was re-adopted from the workers.
curl -sf http://127.0.0.1:18085/jobs/1 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j["state"] == "done", j'
curl -sf http://127.0.0.1:18085/jobs/1/vertices/1 | python3 -c 'import json,sys; j=json.load(sys.stdin); assert j["found"], j'
kill $W1 $W2 $SERVE || true
