#!/usr/bin/env bash
# Builds the benchmark and the schedd daemon from the checkout it is run
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, scratch files, traces) stays under
# .bench_build/ in that directory. Without the repository's sources next
# to this directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/schedd" repro/cmd/schedd)
exec "$out/bin/perfbench" --build-dir "$out" "$@"
