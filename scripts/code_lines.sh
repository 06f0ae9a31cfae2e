#!/usr/bin/env bash
# Counts code lines per crate and for the workspace.
#
#   scripts/code_lines.sh
#
# A code line is a non-blank line of a `.rs` file under `crates/*/src` or
# the facade's `src` that does not start with `//` (after indentation), so
# comments and doc comments do not count. A file's test code starts at its
# first column-0 `#[cfg(test)]` whose next line starts with `mod `, and
# nothing from there on counts. Any other `#[cfg(test)]` (on a test-only
# `use`, or indented on an item inside non-test code) does not end the
# count, and it and its item count as code. The vendored stand-ins under
# `crates/vendored` are not counted. Prints one line per crate, then the
# workspace total.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Prints the code lines of the `.rs` files under directory $1.
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_tests = 0; held = 0 }
        in_tests { next }
        held { held = 0; if (/^mod /) { in_tests = 1; next } lines++ }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { lines++ }
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
