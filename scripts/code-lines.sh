#!/bin/sh
# Non-test code lines per crate: lines of crates/<crate>/src/**/*.rs before
# the file's first `#[cfg(test)]` that are neither blank nor start with `//`
# (so comments, doc comments and `#[cfg(test)] mod tests` bodies are out).
# A simplicity PR's line claim is the difference of two runs of this script.
#
#   scripts/code-lines.sh            # every crate
#   scripts/code-lines.sh core       # one crate
set -eu
cd "$(dirname "$0")/.."
for dir in crates/${1:-*}/; do
    find "${dir}src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*(\/\/|$)/ { next }
        { n++ }
        END { printf "%-24s %6d\n", crate, n }' crate="${dir%/}"
done
