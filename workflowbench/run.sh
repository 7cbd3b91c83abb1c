#!/usr/bin/env bash
# Builds the workflow benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of
# a checkout. Everything the build and the run write stays under
# .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/workflowbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

bin="$out/workflowbench"
tmpbin="$bin.$$"
if ! (cd "$root/workflowbench" && go build -o "$tmpbin" .) >&2; then
	rm -f "$tmpbin"
	echo "workflowbench: build failed" >&2
	exit 2
fi
mv -f "$tmpbin" "$bin"
cd "$root"
exec "$bin" "$@"
