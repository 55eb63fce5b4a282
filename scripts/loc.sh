#!/bin/sh
# loc.sh — non-test, non-generated Go lines per package under internal/ and
# cmd/, and for hrdb.go, with a total. Informational: ROADMAP's "quality of
# design" goal is tracked in these numbers, so a PR can quote them at its
# parent and at its change.
set -eu
cd "$(dirname "$0")/.."

total=0
count() { # count <label> <file>...
    label=$1
    shift
    n=0
    for f in "$@"; do
        [ -f "$f" ] || continue
        case $f in *_test.go) continue ;; esac
        if head -n 5 "$f" | grep -q '^// Code generated .* DO NOT EDIT\.$'; then
            continue
        fi
        n=$((n + $(wc -l < "$f")))
    done
    printf '%-24s %6d\n' "$label" "$n"
    total=$((total + n))
}

for dir in internal/* cmd/*; do
    [ -d "$dir" ] && count "$dir" "$dir"/*.go
done
count hrdb.go hrdb.go
printf '%-24s %6d\n' total "$total"
