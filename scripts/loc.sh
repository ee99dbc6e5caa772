#!/bin/sh
# Non-test Rust lines per crate: every *.rs under crates/*/src and src/, each file cut
# at its first top-level `#[cfg(test)]` (the `mod tests` at the bottom of a file; an
# indented `#[cfg(test)]` on a helper inside an impl does not cut).
# Integration tests, examples and benchmark/ are not counted. Run from anywhere:
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh <dir>      # another checkout, e.g. a clone of the parent commit
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' | sort | while read -r file; do
        awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk '{ total += $1 } END { print total + 0 }'
}

total=0
for dir in crates/*/src src; do
    name=${dir%/src}
    [ "$name" = src ] && name="(root)"
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%-18s %6d\n' "$name" "$lines"
done
printf '%-18s %6d\n' total "$total"
