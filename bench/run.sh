#!/usr/bin/env bash
# Builds jrsbench from source into .bench_build/ and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload ooo --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/, and the build never reaches the network.
set -euo pipefail
# Fall back to the Go distribution's default install location.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/jrsbench" ./jrsbench)
exec "$out/jrsbench" -root "$root" "$@"
