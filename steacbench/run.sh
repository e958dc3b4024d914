#!/usr/bin/env bash
# Builds the steac benchmark from source and runs it.  Run it from the
# repository root, for example:
#
#   bash steacbench/run.sh --workload lbist-verify --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, daemon scratch
# directories and span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(pwd -P)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# under .bench_build too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

# The revision goes into the result's provenance; outside a git checkout
# of this directory it is "unknown".
rev=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		rev="$rev+dirty"
	fi
fi

(cd "$here" && go build -buildvcs=false -ldflags "-X main.gitRevision=$rev" -o "$out/steacbench" .)
exec "$out/steacbench" "$@"
