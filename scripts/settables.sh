#!/bin/sh
# Settable values per crate: the `pub` fields of every `pub struct` named
# `*Config`, `*Options`, `*Policy`, `*Budget` or `CostModel` in
# <dir>/src/**/*.rs, counting only lines before the file's first
# `#[cfg(test)]` (so test-only structs are out). A field is a line at the
# struct's own brace depth that starts with `pub <name>:`; `pub(crate)`
# fields are not settable from outside and do not count. Rows cover the
# workspace crates (crates/*) and the vendored stand-ins (vendor/*), followed
# by one total for each of the two directories — the same layout as
# scripts/code-lines.sh. A simplicity PR's knob claim is the difference of
# two runs of this script.
#
#   scripts/settables.sh            # every crate and stand-in
#   scripts/settables.sh core       # one crate
set -eu
cd "$(dirname "$0")/.."
for dir in crates/${1:-*}/ vendor/${1:-*}/; do
    [ -d "${dir}src" ] || continue
    find "${dir}src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0; depth = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        depth == 0 && /^[[:space:]]*pub struct ([A-Za-z0-9_]*(Config|Options|Policy|Budget)|CostModel)[[:space:]<{]/ {
            if (index($0, "{") == 0) next
            depth = 1
            next
        }
        depth > 0 && /^[[:space:]]*\/\// { next }
        depth > 0 {
            if (depth == 1 && /^[[:space:]]*pub[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:/) n++
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        }
        END { printf "%-24s %6d\n", crate, n }' crate="${dir%/}"
done | awk '
    { print; split($1, path, "/"); total[path[1]] += $2 }
    END {
        if ("crates" in total) printf "%-24s %6d\n", "crates/ total", total["crates"]
        if ("vendor" in total) printf "%-24s %6d\n", "vendor/ total", total["vendor"]
    }'
