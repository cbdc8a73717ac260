#!/usr/bin/env bash
# Builds cosserve, cosrouter and the benchmark from the source tree it sits
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh -workload read-hot -seed 1
#
# Every build output and cache stays under .bench_build/ in the repository
# root (override with BENCH_BUILD), so the benchmark reads and writes only
# inside the checkout. Build time is printed but is not part of setup_s.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${BENCH_BUILD:-.bench_build}
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# The go command also writes telemetry under the user config directory and
# temporary files under TMPDIR: keep both inside the checkout too.
export GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath" GOTMPDIR="$root/$out/tmp"
export TMPDIR="$root/$out/tmp" XDG_CONFIG_HOME="$root/$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

start=$(date +%s%N)
go build -o "$out/bin/" ./cmd/cosserve ./cmd/cosrouter
(cd bench && go build -o "../$out/bin/bench" .)
build=$(( ($(date +%s%N) - start) / 1000000 ))

exec "$out/bin/bench" -bin "$out/bin" -spans "$out" -build-seconds "${build}e-3" "$@"
