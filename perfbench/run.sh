#!/usr/bin/env bash
# Builds the Loom benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest-dblp --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every file the build and the run
# write (compiler cache, binary, WAL and spill directories, reports, span
# dumps) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/loombench" .) >&2
exec "$out/loombench" -root "$root" -out "$out" "$@"
