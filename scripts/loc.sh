#!/usr/bin/env bash
# The line counts every CHANGES.md entry quotes: non-test Go outside bench/,
# test Go outside bench/, bench/'s Go (tests included), then the non-test
# total of each package directory, largest first. Tracked files plus new ones
# not yet added, so it reads the same before and after `git add`.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files --cached --others --exclude-standard -- '*.go' | while read -r f; do
    if [ -f "$f" ]; then echo "$f"; fi
done)
lines() { grep -E "$1" <<<"$files" | { grep -vE "${2:-^$}" || true; } | xargs -r cat | wc -l; }

printf 'non-test Go outside bench/: %6d\n' "$(lines '.' '^bench/|_test\.go$')"
printf 'test Go outside bench/:     %6d\n' "$(lines '_test\.go$' '^bench/')"
printf 'bench/ Go:                  %6d\n' "$(lines '^bench/')"
echo
echo "non-test lines per package:"
grep -vE '^bench/|_test\.go$' <<<"$files" | xargs -r wc -l | awk '
    $2 != "total" { dir = $2; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."; sum[dir] += $1 }
    END { for (d in sum) printf "%7d  %s\n", sum[d], d }' | sort -k1,1nr -k2
