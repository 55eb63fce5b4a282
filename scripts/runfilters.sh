#!/bin/sh
# runfilters.sh — fail when an alternative of a Makefile `-run` pattern
# matches no test function in that line's packages. `go test -run` passes
# when nothing matches, so a test renamed or deleted would otherwise drop
# out of the make target that names it without a sound. `make test` and
# the CI lint job run it.
set -eu
cd "$(dirname "$0")/.."

bad=$(grep -E '^[[:space:]]+[$][(]GO[)] test .*-run ' Makefile | grep -vF "'^\$\$'" | while IFS= read -r line; do
    pattern=${line#*-run \'}
    pattern=${pattern%%\'*}
    pkgs=$(printf '%s\n' "$line" | tr ' ' '\n' | grep -E '^\.(/.*)?$')
    names=$(for p in $pkgs; do cat "$p"/*_test.go; done | sed -nE 's/^func ((Test|Fuzz)[A-Za-z0-9_]*)\(.*/\1/p')
    printf '%s\n' "$pattern" | tr '|' '\n' | while IFS= read -r alt; do
        printf '%s\n' "$names" | grep -qE -e "$alt" || echo "Makefile -run '$pattern': '$alt' matches no test in" $pkgs
    done
done)
[ -z "$bad" ] || { printf '%s\n' "$bad" >&2; exit 1; }
