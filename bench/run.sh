#!/usr/bin/env bash
# Builds rdnsperf from source and runs it with the arguments the driver
# appends (--workload, --seed, --seconds, --trace). Everything it writes —
# the Go build cache, the binary, the stores of a run, the span files —
# stays inside the checkout: .bench_build/ at its root and bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the toolchain's own counters and env file
export GOTOOLCHAIN=local GOFLAGS=

# bench/ is a package of the repository's module, so the build needs the
# repository around it: in a directory that holds only the benchmark there
# is no go.mod beside bench/ and this script exits non-zero.
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: no go.mod in $root: rdnsperf builds only inside the repository" >&2
	exit 1
fi
mkdir -p "$build/work" "$build/tmp"
(cd "$root" && go build -o "$build/rdnsperf" ./bench)

exec "$build/rdnsperf" -workdir "$build/work" -outdir "$here/out" "$@"
