#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload selective --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, oracle reference
# cache, trace files) stays under .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
