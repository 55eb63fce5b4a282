#!/bin/sh
# runfilters.sh — fail when an alternative of a Makefile `-run` pattern
# matches no Test or Fuzz function, or an alternative of a `-bench` pattern
# no Benchmark function, in that line's packages. `go test -run` and
# `go test -bench` pass when nothing matches, so a test or benchmark renamed
# or deleted would otherwise drop out of the make target that names it
# without a sound. The match-everything patterns '.' and '^$' (the latter
# as Makefile text, '^$$') are not checked. `make test` and the CI lint job
# run it.
set -eu
cd "$(dirname "$0")/.."

# check FLAG FUNCS prints one line per alternative of a -FLAG pattern that
# matches no function whose name starts with FUNCS (an ERE alternation).
check() {
    grep -E "^[[:space:]]+[\$][(]GO[)] test .*-$1[ =]" Makefile | while IFS= read -r line; do
        pattern=${line#*-$1[ =]}
        pattern=${pattern#\'}
        pattern=${pattern%%[\' ]*}
        case $pattern in '^$$' | .) continue ;; esac
        pkgs=$(printf '%s\n' "$line" | tr ' ' '\n' | grep -E '^\.(/.*)?$')
        names=$(for p in $pkgs; do cat "$p"/*_test.go; done | sed -nE "s/^func (($2)[A-Za-z0-9_]*)\(.*/\1/p")
        printf '%s\n' "$pattern" | tr '|' '\n' | while IFS= read -r alt; do
            printf '%s\n' "$names" | grep -qE -e "$alt" || echo "Makefile -$1 '$pattern': '$alt' matches no function in" $pkgs
        done
    done
}

bad=$(check run 'Test|Fuzz'; check bench Benchmark)
[ -z "$bad" ] || { printf '%s\n' "$bad" >&2; exit 1; }
