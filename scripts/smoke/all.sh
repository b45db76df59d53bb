#!/usr/bin/env bash
# Runs the eight process-level smoke scripts — the CI's *-smoke jobs —
# against one binary, one after the other: each starts a serve and up to
# four workers, so running them in sequence keeps the machine's load low.
# Usage: go build -o pregelix ./cmd/pregelix && bash scripts/smoke/all.sh ./pregelix
set -e
BIN=${1:?usage: bash scripts/smoke/all.sh <pregelix binary>}
HERE=$(dirname "$0")
for s in two-process recovery query scale-out ingest coordinator-restart standby-takeover adaptive; do
  echo "=== smoke: $s"
  bash "$HERE/$s.sh" "$BIN"
done
echo "=== all smokes passed"
