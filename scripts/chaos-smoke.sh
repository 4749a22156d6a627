#!/bin/sh
# Chaos smoke test: every invariant-checked scenario the smoke gate
# covers, each run once by a freshly built spacejmp-chaos binary.
#
#   cluster-baseline         3-node auto cluster, MGET-heavy verifying load;
#                            commands must be served on BOTH the shared-VAS
#                            and urpc paths, with a leak-free drain.
#   rolling-node-kills       both remote replicated nodes crash in
#                            sequence; each warm standby must promote with
#                            zero lost updates while the load verifies.
#   partition-then-heal      every urpc frame dropped for 250ms; remote
#                            commands may only fail retryably, and the same
#                            keys verify after the heal.
#   elastic-add-remove       a node joins, takes a fair share of slots under
#                            load, then drains and retires; only retryable
#                            -MOVED refusals around the flips.
#   migration-target-killed  a slot migration pointed at a crashing node
#                            aborts and rolls back, counted exactly once.
#
# partition-then-heal and elastic-add-remove round-trip through their JSON
# form (-dump, then -spec), so the declarative scenario format and its
# pseudo-points are exercised too. Each run also long-polls its own
# /stats/delta stream and requires at least one delta per scenario step.
set -e

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/spacejmp-chaos" ./cmd/spacejmp-chaos

for name in cluster-baseline rolling-node-kills migration-target-killed; do
    echo "chaos-smoke: $name"
    "$tmp/spacejmp-chaos" -scenario "$name" -quiet
done

for name in partition-then-heal elastic-add-remove; do
    echo "chaos-smoke: $name (via JSON spec file)"
    "$tmp/spacejmp-chaos" -scenario "$name" -dump >"$tmp/$name.json"
    "$tmp/spacejmp-chaos" -spec "$tmp/$name.json" -quiet
done

echo "chaos-smoke: OK"
