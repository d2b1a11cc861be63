#!/usr/bin/env bash
# Rust line counts at HEAD and at BASE (default HEAD~1), so a change can
# report its size the same way every time. Prints only; gates nothing.
#
#   scripts/loc.sh [BASE]
#
# "all" counts the lines of every .rs file under crates/ src/ tests/
# examples/. "non-test" counts the files outside any tests/ directory,
# each cut at its first `#[cfg(test)]` line. When the working tree has
# uncommitted changes under those directories it gets a row of its own.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
dirs=(crates src tests examples)

# Sum "all non-test" over the .rs files named on stdin, relative to $1.
count() {
    (cd "$1" && grep '\.rs$' | while IFS= read -r f; do
        [ -f "$f" ] && printf '%s\0' "$f"
    done | xargs -0 -r awk '
        FNR == 1 { test = (FILENAME ~ /(^|\/)tests\//); cut = 0 }
        { all++ }
        !test && !cut && /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        !test && !cut { non++ }
        END { printf "%d %d\n", all, non }')
}

# Counts for a revision, from an export of its tree.
count_rev() {
    local tmp
    tmp=$(mktemp -d)
    git archive "$1" -- "${dirs[@]}" | tar -x -C "$tmp"
    git ls-tree -r --name-only "$1" -- "${dirs[@]}" | count "$tmp"
    rm -rf "$tmp"
}

row() {
    printf '%-14s %8s %9s\n' "$1" "$2" "$3"
}

git rev-parse --verify -q "$base^{commit}" > /dev/null || {
    echo "loc.sh: unknown revision $base" >&2
    exit 2
}
read -r head_all head_non < <(count_rev HEAD)
read -r base_all base_non < <(count_rev "$base")
row "" all non-test
row "$base" "$base_all" "$base_non"
row HEAD "$head_all" "$head_non"
if [ -n "$(git status --porcelain -- "${dirs[@]}")" ]; then
    read -r wt_all wt_non < <(git ls-files -co --exclude-standard -- "${dirs[@]}" | count .)
    row "working tree" "$wt_all" "$wt_non"
    head_all=$wt_all head_non=$wt_non
fi
row "change" "$(printf '%+d' $((head_all - base_all)))" "$(printf '%+d' $((head_non - base_non)))"
