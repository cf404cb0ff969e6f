#!/usr/bin/env bash
# run.sh builds stemsd and the benchmark from the checkout it is run in, then
# runs one benchmark pass. Run it from the repository root:
#
#   bash stemsbench/run.sh --workload serve_small --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (Go build cache, binaries, generated tables, traces and result records).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stemsd" || ! -f "$root/stemsbench/go.mod" ]]; then
	echo "stemsbench: run from the repository root (needs go.mod, cmd/stemsd and stemsbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [[ "$commit" != unknown ]] && ! git -C "$root" diff --quiet HEAD -- 2>/dev/null; then
	commit="$commit-dirty"
fi

go build -o "$out/stemsd" ./cmd/stemsd
(cd "$root/stemsbench" && go build -o "$out/stemsbench" .)
exec "$out/stemsbench" -stemsd "$out/stemsd" -work "$out" -commit "$commit" "$@"
