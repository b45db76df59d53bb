#!/usr/bin/env bash
# adaptive-smoke: Adaptive runtime (serve -adaptive + 2 workers, skewed graph, split + plan switch, parity vs off).
# Usage: bash scripts/smoke/adaptive.sh <pregelix binary>   (e.g. ./pregelix)
# Runs in a scratch directory; on exit it stops every process it started
# and removes the directory.
set -ex
BIN=$(realpath "$1")
DIR=$(mktemp -d)
cd "$DIR"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT
# 80% of the vertices hash into partition 0 of 4 — the vids
# are picked by replicating the runtime's FNV-1a routing hash
# — so its load clears both the 4096 floor and the 2x-mean
# skew bar and the advisor must split it. 8% of the vertices
# get out-degree 2 < k, seeding a k-core peeling cascade
# that is message-sparse from the start, so the kcore job's
# second superstep switches fullouter -> leftouter.
python3 - <<'EOF' > graph.txt
import random
random.seed(11)
def part(v):
    h = 14695981039346656037
    for shift in range(56, -8, -8):
        h ^= (v >> shift) & 0xff
        h = (h * 1099511628211) % (1 << 64)
    return h % 4
hot, cold = [], []
v = 1
while len(hot) < 4800 or len(cold) < 1200:
    if part(v) == 0:
        if len(hot) < 4800:
            hot.append(v)
    elif len(cold) < 1200:
        cold.append(v)
    v += 1
ids = hot + cold
for v in ids:
    deg = 2 if random.random() < 0.08 else 4
    dsts = set()
    while len(dsts) < deg:
        d = random.choice(hot) if random.random() < 0.85 else random.choice(ids)
        if d != v:
            dsts.add(d)
    print(f"{v}\t" + " ".join(str(d) for d in sorted(dsts)))
EOF
"$BIN" serve -listen 127.0.0.1:18088 -workers 2 -cluster-listen 127.0.0.1:19097 -adaptive &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19097 -nodes 2 &
W1=$!
"$BIN" worker -cc 127.0.0.1:19097 -nodes 2 &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18088/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18088/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr","iterations":6}' \
     http://127.0.0.1:18088/jobs
for i in $(seq 1 120); do
  STATE=$(curl -sf http://127.0.0.1:18088/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18088/jobs/1; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
curl -sf -X POST -d '{"algorithm":"kcore","input":"/in/g","output":"/out/kc","k":3}' \
     http://127.0.0.1:18088/jobs
for i in $(seq 1 120); do
  STATE=$(curl -sf http://127.0.0.1:18088/jobs/2 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18088/jobs/2; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
# The advisor's event log is on /stats: at least one hot-
# partition split and at least one plan switch.
curl -sf http://127.0.0.1:18088/stats | python3 -c '
import json, sys
evs = json.load(sys.stdin)["adaptive"]
kinds = [e["kind"] for e in evs]
for e in evs:
    print(e["kind"], e.get("job", ""), "ss", e.get("superstep", ""), e.get("detail", ""))
assert "split" in kinds, kinds
assert "plan-switch" in kinds, kinds
'
curl -sf http://127.0.0.1:18088/files/out/pr > pr-on.txt
kill $W1 $W2 $SERVE || true
# Same PageRank on a serve without -adaptive: the split must
# not change any vertex value (float sums reassociate, so
# compare with a relative epsilon).
"$BIN" serve -listen 127.0.0.1:18089 -workers 2 -cluster-listen 127.0.0.1:19098 &
SERVE=$!
sleep 1
"$BIN" worker -cc 127.0.0.1:19098 -nodes 2 &
W1=$!
"$BIN" worker -cc 127.0.0.1:19098 -nodes 2 &
W2=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18089/healthz && break
  sleep 1
done
curl -sf -X PUT --data-binary @graph.txt http://127.0.0.1:18089/files/in/g
curl -sf -X POST -d '{"algorithm":"pagerank","input":"/in/g","output":"/out/pr","iterations":6}' \
     http://127.0.0.1:18089/jobs
for i in $(seq 1 120); do
  STATE=$(curl -sf http://127.0.0.1:18089/jobs/1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { curl -s http://127.0.0.1:18089/jobs/1; exit 1; }
  sleep 1
done
[ "$STATE" = done ]
curl -sf http://127.0.0.1:18089/files/out/pr > pr-off.txt
kill $W1 $W2 $SERVE || true
python3 - <<'EOF'
def load(p):
    out = {}
    for line in open(p):
        f = line.split("\t")
        out[int(f[0])] = float(f[1])
    return out
on, off = load("pr-on.txt"), load("pr-off.txt")
assert len(on) == len(off) == 6000, (len(on), len(off))
worst = max(abs(on[v] - off[v]) / max(abs(off[v]), 1e-300) for v in off)
print(f"parity: {len(on)} vertices, worst relative diff {worst:.2e}")
assert worst < 1e-6
EOF
