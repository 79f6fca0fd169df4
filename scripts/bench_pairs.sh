#!/bin/sh
# Alternating runs of one phi-benchmark workload at a parent revision and
# at the working tree, and how the two compare. Print-only: it gates
# nothing.
#
#   sh scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seconds]
#
# Both sides are built in release under target/bench-pairs/: the parent
# from `git archive <parent-rev>`, the change from the working tree. It
# first prints each side's `exact:` line (the deterministic counts and
# digest of one unit) at seed 1, so a change in them shows beside the
# wall-clock ratio. Pair i runs both sides at seed i with `--seconds S
# --trace 0` (10 pairs of 20 s by default), the parent first on odd
# pairs and second on even ones. For work_per_s (higher is better) and
# setup_s (lower is better) it prints every pair, both medians, the
# parent's interquartile range, the ratio of the change's median to the
# parent's, and the pairs the change won. Needs jq. Run from the repo
# root.
#
# The header names the commit each side ran: the parent's short sha, and
# HEAD's for the change, with `+dirty` when `git status --porcelain`
# prints anything. The benchmark's own JSON `"git"` field means nothing
# for a pair: it reads `.git/HEAD` in the working directory, which is
# the repo root for both sides.
set -eu

[ "$#" -ge 2 ] || {
    echo "usage: sh scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seconds]" >&2
    exit 2
}
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-20}
out="$(pwd)/target/bench-pairs"
mkdir -p "$out"

# Build phi-benchmark from the tree at $1 into the target directory $2.
# Cargo rewrites the package's lock file (it drops the vendored patches
# it does not use), so the file is put back afterwards.
build() {
    lock=$(mktemp)
    cp "$1/phi-benchmark/Cargo.lock" "$lock"
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/phi-benchmark/Cargo.toml"
    cp "$lock" "$1/phi-benchmark/Cargo.lock"
    rm -f "$lock"
}

rm -rf "$out/parent-src"
mkdir -p "$out/parent-src"
git archive "$rev" | tar -x -C "$out/parent-src"
build "$out/parent-src" "$out/parent-target"
build . "$out/change-target"
parent="$out/parent-target/release/phi-benchmark"
change="$out/change-target/release/phi-benchmark"

# One run: "work_per_s setup_s", and a warning on stderr if the run was
# not correct or any operation failed.
run() {
    line=$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1)
    echo "$line" | jq -e '.correct and .failed == 0' >/dev/null ||
        echo "warning: $1 at seed $2 was not correct or failed operations" >&2
    echo "$line" | jq -r '"\(.metrics.work_per_s.value) \(.metrics.setup_s.value)"'
}

# One side's `exact:` line at seed 1.
exact() {
    line=$("$2" --workload "$workload" --seed 1 --seconds 1 --trace 0 2>/dev/null |
        grep '^exact: ')
    printf '%-7s %s\n' "$1" "$line"
}

table="$out/$workload.pairs"
: >"$table"
head=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain)" ] || head="$head+dirty"
echo "$workload: $pairs pairs of ${seconds} s, parent $(git rev-parse --short "$rev"), change $head"
exact parent "$parent"
exact change "$change"
printf '%-5s %16s %16s %10s %10s\n' pair parent_work change_work parent_setup change_setup
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run "$parent" "$i")
        c=$(run "$change" "$i")
    else
        c=$(run "$change" "$i")
        p=$(run "$parent" "$i")
    fi
    echo "$i $p $c" >>"$table"
    echo "$i $p $c" | awk '{ printf "%-5s %16.1f %16.1f %10.4f %10.4f\n", $1, $2, $4, $3, $5 }'
    i=$((i + 1))
done

# Columns: pair, parent work, parent setup, change work, change setup.
awk '
    function sorted(col, a,   n, i, j, v) {
        n = 0
        for (i = 1; i <= rows; i++) {
            v = cell[i, col]
            for (j = n; j > 0 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
            n++
        }
        return n
    }
    # The p-quantile of a[1..n], interpolated between order statistics.
    function quantile(a, n, p,   h, lo) {
        h = 1 + p * (n - 1)
        lo = int(h)
        return lo < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[n]
    }
    function summary(name, pcol, ccol, higher,   pa, ca, n, won, i) {
        n = sorted(pcol, pa)
        sorted(ccol, ca)
        won = 0
        for (i = 1; i <= rows; i++) {
            if (higher ? cell[i, ccol] > cell[i, pcol] : cell[i, ccol] < cell[i, pcol]) won++
        }
        printf "%-11s parent median %.6g [IQR %.6g-%.6g], change median %.6g, ratio %.4f, change won %d/%d\n",
            name, quantile(pa, n, 0.5), quantile(pa, n, 0.25), quantile(pa, n, 0.75),
            quantile(ca, n, 0.5), quantile(ca, n, 0.5) / quantile(pa, n, 0.5), won, rows
    }
    { rows++; for (c = 2; c <= 5; c++) cell[rows, c] = $c }
    END {
        summary("work_per_s", 2, 4, 1)
        summary("setup_s", 3, 5, 0)
    }
' "$table"
