#!/bin/sh
# runfilters.sh — fail when an alternative of a `go test -run` pattern
# matches no Test or Fuzz function, or an alternative of a `-bench` pattern
# no Benchmark function, in that line's packages. It checks the Makefile's
# `$(GO) test` lines and the `go test` lines of .github/workflows/*.yml.
# `go test -run` and `go test -bench` pass when nothing matches, so a test
# or benchmark renamed or deleted would otherwise drop out of the make
# target or CI step that names it without a sound. The match-everything
# patterns '.' and '^$' (the latter as Makefile text, '^$$') are not
# checked. `make test` and the CI lint job run it.
set -eu
cd "$(dirname "$0")/.."

# check FILE LINE FLAG FUNCS prints one line per alternative of a -FLAG
# pattern, on a FILE line matching the ERE LINE, that matches no function
# whose name starts with FUNCS (an ERE alternation).
check() {
    grep -E "$2.*-$3[ =]" "$1" | while IFS= read -r line; do
        pattern=${line#*-$3[ =]}
        pattern=${pattern#\'}
        pattern=${pattern%%[\' ]*}
        case $pattern in '^$$' | '^$' | .) continue ;; esac
        pkgs=$(printf '%s\n' "$line" | tr ' ' '\n' | grep -E '^\.(/.*)?$')
        names=$(for p in $pkgs; do cat "$p"/*_test.go; done | sed -nE "s/^func (($4)[A-Za-z0-9_]*)\(.*/\1/p")
        printf '%s\n' "$pattern" | tr '|' '\n' | while IFS= read -r alt; do
            printf '%s\n' "$names" | grep -qE -e "$alt" || echo "$1 -$3 '$pattern': '$alt' matches no function in" $pkgs
        done
    done
}

# checkfile FILE LINE runs both checks over FILE's test lines.
checkfile() {
    check "$1" "$2" run 'Test|Fuzz'
    check "$1" "$2" bench Benchmark
}

bad=$(
    checkfile Makefile '^[[:space:]]+[$][(]GO[)] test '
    for wf in .github/workflows/*.yml; do
        checkfile "$wf" '[[:space:]]go test '
    done
)
[ -z "$bad" ] || { printf '%s\n' "$bad" >&2; exit 1; }
