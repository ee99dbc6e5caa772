#!/bin/bash
# A/B comparison of one benchmark workload between two checkouts, in alternating pairs.
#
#   scripts/ab_bench.sh <parent-dir> <change-dir> <workload> <pairs> <seed>
#
# Builds benchmark/ of each checkout once, into its own CARGO_TARGET_DIR
# (<dir>/target/ab_bench), then runs the two binaries in <pairs> alternating pairs:
# the parent first on odd pairs, the change first on even ones, so drift on a shared
# host falls on both sides alike. Each run is
#   benchmark --workload <workload> --seed <seed> --seconds <run_seconds> --trace $AB_TRACE
# with run_seconds read from BENCHMARK.json and AB_TRACE 0 unless set (1 adds the
# per-layer metrics). Prints, per metric, the
# median, quartiles, min and max of each side and in how many pairs the change was
# better, where BENCHMARK.json names the metric's direction. For an end-to-end metric
# (one with a `bound` there) a verdict follows: `exceeds bound` when the change's
# median is worse than the parent's by more than the bound (a fraction of the parent's
# median), `unresolved` when the parent's own interquartile range is wider than the
# bound, `ok` otherwise. Exits 1 if any run fails or reports `failed` > 0 (never
# because of a verdict). Keep the host otherwise idle while it runs.
set -euo pipefail

if [ $# -ne 5 ]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
workload=$3
pairs=$4
seed=$5
trace=${AB_TRACE:-0}
manifest=$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json
seconds=$(grep -o '"run_seconds": *[0-9]*' "$manifest" | grep -o '[0-9]*$')
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

declare -A dir target
for side in parent change; do
    if [ "$side" = parent ]; then src=$1; else src=$2; fi
    dir[$side]=$(cd "$src" && pwd)
    target[$side]=${dir[$side]}/target/ab_bench
    echo "# building $side (${dir[$side]})" >&2
    (cd "${dir[$side]}" && CARGO_TARGET_DIR=${target[$side]} \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done

status=0
# Runs one side for pair $2; its metric lines go to $work/<side>.<pair>.
run() {
    local side=$1 pair=$2 out
    out=$work/$side.$pair.out
    if ! CARGO_TARGET_DIR=${target[$side]} "${target[$side]}/release/benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        >"$out" 2>"$work/$side.$pair.err"; then
        echo "# pair $pair, $side: the run failed (see its stderr below)" >&2
        tail -5 "$work/$side.$pair.err" >&2
        status=1
    fi
    local failed
    failed=$(grep -o '"failed": *[0-9]*' "$out" | grep -o '[0-9]*$' || echo missing)
    if [ "$failed" != 0 ]; then
        echo "# pair $pair, $side: failed = $failed" >&2
        status=1
    fi
    awk -F'\t' 'NF == 3 && $1 !~ /^#/' "$out" >"$work/$side.$pair"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "# pair $pair/$pairs: $side" >&2
        run "$side" "$pair"
    done
done

# Sorted values on stdin -> the awk program in $1, which sees them as v[1..NR] and a
# quartile function q(p): the linear interpolation between the two nearest ranks.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   r, i) {
            r = 1 + p * (NR - 1); i = int(r)
            return i < NR ? v[i] + (r - i) * (v[i + 1] - v[i]) : v[NR]
        }
        END { if (NR == 0) { print "-"; exit } '"$1"' }'
}
# "median q1..q3 [min..max]" of the values on stdin.
summary() {
    quartiles 'printf "%.4g %.4g..%.4g [%.4g..%.4g]", q(0.5), q(0.25), q(0.75), v[1], v[NR]'
}
# "median q1 q3" of the values on stdin, at full precision.
spread() {
    quartiles 'printf "%s %s %s", q(0.5), q(0.25), q(0.75)'
}

printf '%-30s %-6s %-40s %-40s %-18s %s\n' metric unit "parent median q1..q3 [min..max]" \
    "change median q1..q3 [min..max]" "change better" verdict
cut -f1,3 "$work/parent.1" | while IFS=$'\t' read -r name unit; do
    values() {
        for p in $(seq 1 "$pairs"); do
            awk -F'\t' -v n="$name" '$1 == n { print $2 }' "$work/$1.$p"
        done
    }
    entry=$(grep -o "\"name\": \"$name\"[^}]*" "$manifest" || true)
    better=$(printf '%s' "$entry" | grep -o '"better": "[a-z]*"' | grep -o '[a-z]*"$' |
        tr -d '"' || true)
    bound=$(printf '%s' "$entry" | grep -o '"bound": *[0-9.]*' | grep -o '[0-9.]*$' || true)
    wins=-
    if [ -n "$better" ]; then
        wins=0
        for p in $(seq 1 "$pairs"); do
            a=$(awk -F'\t' -v n="$name" '$1 == n { print $2 }' "$work/parent.$p")
            b=$(awk -F'\t' -v n="$name" '$1 == n { print $2 }' "$work/change.$p")
            if awk -v a="$a" -v b="$b" -v d="$better" \
                'BEGIN { exit !(a != "" && b != "" && (d == "lower" ? b < a : b > a)) }'; then
                wins=$((wins + 1))
            fi
        done
        wins="$wins/$pairs ($better)"
    fi
    verdict=-
    if [ -n "$better" ] && [ -n "$bound" ]; then
        read -r parent_median q1 q3 <<<"$(values parent | spread)"
        read -r change_median _ <<<"$(values change | spread)"
        verdict=$(awk -v pm="$parent_median" -v q1="$q1" -v q3="$q3" -v cm="$change_median" \
            -v bound="$bound" -v d="$better" 'BEGIN {
                if (pm == "-" || cm == "-") { print "-"; exit }
                if (pm == 0) { print (cm == 0 ? "ok" : "unresolved"); exit }
                worse = (d == "lower" ? cm - pm : pm - cm) / (pm < 0 ? -pm : pm)
                if (worse > bound) print "exceeds bound"
                else if ((q3 - q1) / (pm < 0 ? -pm : pm) > bound) print "unresolved"
                else print "ok"
            }')
    fi
    printf '%-30s %-6s %-40s %-40s %-18s %s\n' "$name" "$unit" "$(values parent | summary)" \
        "$(values change | summary)" "$wins" "$verdict"
done
exit $status
