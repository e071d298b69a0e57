#!/usr/bin/env bash
# loc.sh — count the non-test Rust lines under crates/.
#
# Rule: every `.rs` file under crates/ outside a `tests/` directory,
# each counted up to (not including) its first `#[cfg(test)]` line.
# Prints one number. Run from anywhere: `scripts/loc.sh`.

set -euo pipefail
cd "$(dirname "$0")/.."
find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 \
    | xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }' \
    | awk '{ total += $1 } END { print total }'
