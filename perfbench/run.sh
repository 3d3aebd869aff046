#!/usr/bin/env bash
# Builds vpserve and the perfbench program from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
#
# Every build product, the Go build cache and the run's working files stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/vpserve || ! -d internal/serve ]]; then
	echo "perfbench: run from the root of a checkout of the repository (no go.mod, cmd/vpserve or internal/serve here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default is "local"), the go command forks a detached
# child that can outlive it; "off" in the mode file stops that child.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/vpserve" ./cmd/vpserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -vpserve "$out/vpserve" -workdir "$out/run.$$" "$@"
