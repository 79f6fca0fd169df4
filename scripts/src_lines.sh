#!/bin/sh
# Non-test source lines per crate: for every crates/<c>/src/**/*.rs that is
# not under a tests/ directory and is not named tests.rs, the lines up to
# the `#[cfg(test)]` that is followed by `mod tests {` (the whole file when
# it has none). Run from the repo root.
#
#   sh scripts/src_lines.sh sim core tcp remy
set -eu

[ "$#" -gt 0 ] || {
    echo "usage: sh scripts/src_lines.sh <crate>..." >&2
    exit 2
}

total=0
for c in "$@"; do
    n=$(find "crates/$c/src" -name '*.rs' ! -path '*/tests/*' ! -name tests.rs \
        -exec awk '
            FNR == 1 { skip = 0; attr = 0 }
            attr && /^[ \t]*mod tests \{/ { skip = 1 }
            skip { next }
            { n++; attr = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) }
            END { print n + 0 }
        ' {} + | awk '{ s += $1 } END { print s + 0 }')
    echo "$c $n"
    total=$((total + n))
done
echo "total $total"
