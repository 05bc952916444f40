#!/usr/bin/env bash
# Builds the benchmark and the serving daemon from source into .bench_build
# at the root of the checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload study|mesh-solve|serve-mixed \
#       --seed N --seconds S --trace 0|1
#
# Every build artefact, cache and temporary file stays inside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/serve" sparseorder/cmd/serve
)

commit="unknown"
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

exec "$out/bin/perfbench" -serve-bin "$out/bin/serve" -out "$out" -commit "$commit" "$@"
