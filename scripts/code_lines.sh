#!/usr/bin/env bash
# Counts code lines per crate and for the workspace.
#
#   scripts/code_lines.sh
#
# A code line is a non-blank line of a `.rs` file under `crates/*/src` or
# the facade's `src` that does not start with `//` (after indentation), so
# comments and doc comments do not count. A file's test code starts at its
# first `#[cfg(test)]` in column 0, and nothing from there on counts; an
# indented `#[cfg(test)]` (a test-only item inside non-test code) does not
# end the count. The vendored stand-ins under `crates/vendored` are not
# counted. Prints one line per crate, then the workspace total.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Prints the code lines of the `.rs` files under directory $1.
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { lines++ }
        END { print lines + 0 }'
}

total=0
for dir in crates/*/src src; do
    [[ $dir == crates/vendored/* ]] && continue
    name=${dir%/src}
    name=${name#crates/}
    [[ $name == src ]] && name="(facade)"
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%-12s %6d\n' "$name" "$lines"
done
printf '%-12s %6d\n' workspace "$total"
