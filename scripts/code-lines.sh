#!/bin/sh
# Non-test code lines per crate: lines of <dir>/src/**/*.rs before the file's
# first `#[cfg(test)]` that are neither blank nor start with `//` (so
# comments, doc comments and `#[cfg(test)] mod tests` bodies are out). Rows
# cover the workspace crates (crates/*) and the vendored stand-ins
# (vendor/*), followed by one total for each of the two directories.
# A simplicity PR's line claim is the difference of two runs of this script.
#
#   scripts/code-lines.sh            # every crate and stand-in
#   scripts/code-lines.sh core       # one crate
set -eu
cd "$(dirname "$0")/.."
for dir in crates/${1:-*}/ vendor/${1:-*}/; do
    [ -d "${dir}src" ] || continue
    find "${dir}src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*(\/\/|$)/ { next }
        { n++ }
        END { printf "%-24s %6d\n", crate, n }' crate="${dir%/}"
done | awk '
    { print; split($1, path, "/"); total[path[1]] += $2 }
    END {
        if ("crates" in total) printf "%-24s %6d\n", "crates/ total", total["crates"]
        if ("vendor" in total) printf "%-24s %6d\n", "vendor/ total", total["vendor"]
    }'
