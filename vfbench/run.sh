#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash vfbench/run.sh --workload node-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f vfbench/go.mod ]] || ! grep -q '^module vfreq$' go.mod; then
	echo "vfbench: run from the root of a vfreq checkout" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
# Rebuild only when a Go source or module file is newer than the binary:
# rewriting the binary on every run leaves writeback work that slows the
# next set-up's fixture creation.
bin=$out/vfbench
if [[ ! -x $bin ]] || [[ -n $(find . -path "./${out#"$root"/}" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit) ]]; then
	(cd vfbench && go build -o "$bin" .)
fi
exec "$bin" --work "$out" "$@"
