#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root: bash perfbench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>. Build outputs, the Go build cache and the Go
# tool's own config and telemetry files stay in .bench_build/ under the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench.tmp" .
mv "$out/perfbench.tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
