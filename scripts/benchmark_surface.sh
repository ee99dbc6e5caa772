#!/bin/sh
# The part of the workspace's public surface that benchmark/ compiles against.
# benchmark/ is its own package and only a [benchmark] PR may edit it, so any other PR
# has to keep each of these signatures working. Printed, sorted and de-duplicated:
#   udf_decorrelation::a::B   every path benchmark/src imports
#   B::f                      every function it calls through an imported type or module
#   .f                        every method it calls that some crate defines as `pub fn f`
#                             (matched by name, so a std method that shares its name with
#                             a workspace function is listed too: a superset, never less)
#   ExecConfig.x / stats.x    every ExecConfig field it sets or reads, and every counter
#                             it reads off an ExecStats / UdfMemoStats snapshot
# Report only. Run from anywhere:
#   scripts/benchmark_surface.sh            # the working tree
#   scripts/benchmark_surface.sh <dir>      # another checkout
set -eu
cd "${1:-$(dirname "$0")/..}"

# One line per file with comments and string literals stripped, so a
# `use a::{B,\n C}` is one match and a metric name like "engine.register" is none.
text=$(for file in benchmark/src/*.rs; do
    sed -e 's|//.*||' -e 's|"[^"]*"||g' "$file" | tr '\n' ' '
    echo
done)
defined=$(grep -rhoE 'pub fn [a-z_0-9]+' crates/*/src src | awk '{ print $3 }' | sort -u)

# Imported paths, `a::{B, C}` expanded to `a::B` and `a::C`.
paths=$(printf '%s\n' "$text" |
    grep -oE 'udf_decorrelation::[a-z_:]*(\{[^}]*\}|[A-Za-z_]+)' |
    awk '{
        open = index($0, "{")
        if (open == 0) { print; next }
        prefix = substr($0, 1, open - 1)
        list = substr($0, open + 1, length($0) - open - 1)
        gsub(/[ \t]/, "", list)
        n = split(list, names, ",")
        for (i = 1; i <= n; i++) if (names[i] != "") print prefix names[i]
    }' | sed 's|::self$||' | sort -u)
# What an associated function or a module function is called through: the last segment
# of each imported path (`Engine`, `tpch`).
heads=$(printf '%s\n' "$paths" | grep -oE '[A-Za-z_]+$' | sort -u | paste -sd '|' -)

# Keeps the lines of stdin whose function name (after the last `.` or `::`) is defined.
only_defined() {
    while read -r call; do
        if printf '%s\n' "$defined" | grep -qx "${call##*[.:]}"; then
            printf '%s\n' "$call"
        fi
    done
}

{
    printf '%s\n' "$paths"
    printf '%s\n' "$text" | grep -oE "\\b($heads)::[a-z_]+\\(" | tr -d '(' | sort -u | only_defined
    printf '%s\n' "$text" | grep -oE '\.[ ]*[a-z_]+\(' | tr -d ' (' | sort -u | only_defined
    printf '%s\n' "$text" |
        grep -oE 'ExecConfig \{[^}]*\}' | grep -oE '\b[a-z_]+: ' | sed 's|\(.*\): |ExecConfig.\1|'
    printf '%s\n' "$text" |
        grep -oE '\b(config|exec_config)\.[a-z_]+\b[^(]' | sed 's|.*\.\([a-z_]*\).|ExecConfig.\1|'
    printf '%s\n' "$text" |
        grep -oE '\b(stats|iter_stats|memo)\.[a-z_]+\b[^(]' | sed 's|.*\.\([a-z_]*\).|stats.\1|'
} | sort -u
