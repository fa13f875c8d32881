#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload sim-ranked-2k --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' span files stay in
# $CARGO_TARGET_DIR (default .bench_build) under the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/emcast-benchmark" .)
exec "$out/emcast-benchmark" "$@"
