#!/usr/bin/env bash
# Entry point of the repository benchmark: builds the harness from
# source inside the checkout, then runs one workload.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write lands under .bench_build/ in the checkout (Go build cache,
# temporary directories, binaries); nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/sim" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
