#!/bin/sh
# Every independently settable configuration value of the workspace: each `pub` field
# of the configuration structs below and each `EngineBuilder` option (its methods
# other than the terminals `build` / `try_build`). Prints one `Type.value` line per
# knob, then the count per type and the total. A type the checkout does not have counts
# 0, so two checkouts compare directly. Report only. Run from anywhere:
#   scripts/knobs.sh            # the working tree
#   scripts/knobs.sh <dir>      # another checkout, e.g. a clone of the parent commit
set -eu
cd "${1:-$(dirname "$0")/..}"

STRUCTS="ExecConfig CostParams PassManagerOptions QueryOptions AnalyzeConfig FeedbackConfig"

# `Name.field` for each `pub field:` line of `pub struct Name { … }`.
fields() {
    files=$(grep -rl "^pub struct $1 {" crates/*/src || true)
    [ -n "$files" ] || return 0
    awk -v name="$1" '
        $0 == "pub struct " name " {" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+:/ {
            field = $2
            sub(/:.*/, "", field)
            print name "." field
        }' $files
}

# `EngineBuilder::option` for each `pub fn` of `impl EngineBuilder { … }` but the
# terminals.
options() {
    files=$(grep -rl '^impl EngineBuilder {' crates/*/src || true)
    [ -n "$files" ] || return 0
    awk '
        $0 == "impl EngineBuilder {" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub fn [a-z_0-9]+/ {
            name = $3
            sub(/[(<].*/, "", name)
            if (name != "build" && name != "try_build") print "EngineBuilder::" name
        }' $files
}

knobs=$(for s in $STRUCTS; do fields "$s"; done; options)
printf '%s\n' "$knobs"
echo
total=0
for type in $STRUCTS EngineBuilder; do
    n=$(printf '%s\n' "$knobs" | grep -c "^$type[.:]" || true)
    total=$((total + n))
    printf '%-20s %3d\n' "$type" "$n"
done
printf '%-20s %3d\n' total "$total"
