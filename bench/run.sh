#!/bin/sh
# Builds glitchbench from this checkout's sources and runs it with the
# given flags, e.g.:
#
#   bash bench/run.sh --workload campaign --seed 3 --seconds 10 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ there: the Go build and module caches,
# temporary files, the binary, the run's scratch files and trace output.
# Without the rest of the repository next to bench/, the build fails and
# so does this script.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/glitchbench" ./cmd/glitchbench)
exec "$out/glitchbench" "$@"
