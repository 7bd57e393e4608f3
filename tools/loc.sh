#!/bin/sh
# Non-test lines of Rust under crates/, per crate and in total: for every
# crates/*/src/**/*.rs except files named tests.rs or testutil.rs (modules
# declared under `#[cfg(test)]`), the lines before the first `#[cfg(test)]`
# at the start of a line.  This is the figure the house
# rules make CHANGES.md record as a PR's line delta; run it from the repo
# root (or pass the root of another checkout) before and after a change.
set -eu
cd "${1:-.}"
total=0
for crate in crates/*/; do
    lines=$(find "${crate}src" -name '*.rs' ! -name tests.rs ! -name testutil.rs -exec \
        awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' {} +)
    printf '%7d  %s\n' "$lines" "$(basename "$crate")"
    total=$((total + lines))
done
printf '%7d  total\n' "$total"
