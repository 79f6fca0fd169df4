#!/bin/sh
# Non-test source lines per crate: for every crates/<c>/src/**/*.rs that is
# not under a tests/ directory and is not named tests.rs, the lines up to
# the `#[cfg(test)]` that is followed by `mod tests {` (the whole file when
# it has none). Each crate's total is followed by its files' counts,
# indented, in path order; a file over 800 lines is marked. Printed, never
# gated. Run from the repo root.
#
#   sh scripts/src_lines.sh sim core tcp remy
set -eu

[ "$#" -gt 0 ] || {
    echo "usage: sh scripts/src_lines.sh <crate>..." >&2
    exit 2
}

total=0
for c in "$@"; do
    files=$(find "crates/$c/src" -name '*.rs' ! -path '*/tests/*' ! -name tests.rs \
        -exec awk '
            FNR == 1 { if (file != "") print file, n; file = FILENAME; n = 0; skip = 0; attr = 0 }
            attr && /^[ \t]*mod tests \{/ { skip = 1 }
            skip { next }
            { n++; attr = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) }
            END { if (file != "") print file, n }
        ' {} + | sort)
    n=$(printf '%s\n' "$files" | awk '{ s += $2 } END { print s + 0 }')
    echo "$c $n"
    printf '%s\n' "$files" | awk 'NF { print "  " $0 ($2 > 800 ? "  (over 800)" : "") }'
    total=$((total + n))
done
echo "total $total"
