#!/usr/bin/env bash
# Builds iramsim, iramsimd and the benchmark harness from this checkout,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload paper-live --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# scratch file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/iramsim" || ! -d "$root/cmd/iramsimd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/iramsim here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off

# Build quietly: the last stdout line must be the harness's JSON result.
go build -o "$out/bin/iramsim" ./cmd/iramsim >&2
go build -o "$out/bin/iramsimd" ./cmd/iramsimd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" -repo "$root" "$@"
