#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root; every build and run
# artifact stays under .bench_build/.
#
# The daemon's store directories live under .bench_build/stores. Where user
# and mount namespaces are available, the benchmark runs in a private mount
# namespace with a tmpfs mounted there, so segment fsyncs cost no device
# time (disk fsync latency drifts by tens of percent between runs). The
# mount vanishes with the process. Without namespaces the stores stay on
# the checkout's filesystem, and the run's output flags that.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/stores"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git rev-parse HEAD)
	git diff --quiet HEAD || commit+=+dirty
fi
go build -C perfbench -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bin/perfbench" .

bin=("$out/bin/perfbench" --dir "$out" "$@")
if unshare --user --map-root-user --mount true 2>/dev/null; then
	exec unshare --user --map-root-user --mount sh -c '
		stores=$1; shift
		mount -t tmpfs -o size=2g perfbench "$stores" ||
			echo "perfbench: no tmpfs for the stores; they stay on disk" >&2
		exec "$@"' sh "$out/stores" "${bin[@]}"
fi
exec "${bin[@]}"
