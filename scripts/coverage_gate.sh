#!/usr/bin/env bash
# Coverage ratchet: fail when total statement coverage drops below the floor
# committed in COVERAGE_FLOOR. When coverage durably improves, raise the floor
# (keep ~2-4 points of headroom so legitimate refactors don't flake).
set -euo pipefail
cd "$(dirname "$0")/.."

floor=$(tr -d '[:space:]' < COVERAGE_FLOOR)
# Quiet when the tests pass; a failing test's output is the message.
if ! out=$(go test ./... -coverprofile=cover.out 2>&1); then
    printf '%s\n' "$out"
    echo "FAIL: go test failed; coverage not measured" >&2
    exit 1
fi
total=$(go tool cover -func=cover.out | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')
echo "total statement coverage: ${total}% (committed floor: ${floor}%)"
if ! awk -v t="$total" -v f="$floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }'; then
    echo "FAIL: coverage ${total}% fell below the committed floor ${floor}%" >&2
    exit 1
fi
