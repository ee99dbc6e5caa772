#!/bin/sh
# Non-test Rust lines per crate: every *.rs under crates/*/src and src/, each file cut
# at its first top-level `#[cfg(test)]` (the `mod tests` at the bottom of a file; an
# indented `#[cfg(test)]` on a helper inside an impl does not cut).
# Two columns: all those lines, then the code among them — without blank lines and
# without `//`, `///` and `//!` comment lines, so deleting comments moves the first
# column but not the second.
# The total line also gives the number of workspace crates (directories crates/*).
# Integration tests, examples and benchmark/ are not counted. Run from anywhere:
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh <dir>      # another checkout, e.g. a clone of the parent commit
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' | sort | while read -r file; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             { n++ }
             !/^[[:space:]]*($|\/\/)/ { code++ }
             END { print n + 0, code + 0 }' "$file"
    done | awk '{ lines += $1; code += $2 } END { print lines + 0, code + 0 }'
}

total=0
total_code=0
crates=0
printf '%-18s %6s %6s\n' crate lines code
for dir in crates/*/src src; do
    name=${dir%/src}
    if [ "$name" = src ]; then name="(root)"; else crates=$((crates + 1)); fi
    set -- $(count "$dir")
    total=$((total + $1))
    total_code=$((total_code + $2))
    printf '%-18s %6d %6d\n' "$name" "$1" "$2"
done
printf '%-18s %6d %6d  %d crates\n' total "$total" "$total_code" "$crates"
