#!/bin/sh
# `Engine` + `Session` is the API. The identifier `Database` may appear only where the
# shim that `benchmark/` still compiles against lives: crates/engine/src/shim.rs, its
# re-export in crates/engine/src/lib.rs, and the fully-qualified `generate` signature
# in crates/tpch/src/gen.rs. (`benchmark/` is its own package and is not scanned.)
set -eu
cd "$(dirname "$0")/.."
found=$(grep -rnw --include='*.rs' Database crates src tests examples |
    grep -v '^crates/engine/src/shim\.rs:' |
    grep -v '^crates/engine/src/lib\.rs:[0-9]*:pub use shim::Database;$' |
    grep -v '^crates/tpch/src/gen\.rs:.*decorr_engine::Database' || true)
if [ -n "$found" ]; then
    echo "the identifier 'Database' is back outside the benchmark shim:" >&2
    echo "$found" >&2
    exit 1
fi
