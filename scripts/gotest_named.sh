#!/usr/bin/env bash
# gotest_named.sh — run one `go test` command that selects tests by name,
# failing first if any |-separated alternative of its pattern names no
# test. `go test` passes a pattern that matches nothing ("[no tests to
# run]", "no fuzz tests to fuzz"), so without this check a renamed test
# would drop out of a Makefile leg silently.
#
#   bash scripts/gotest_named.sh GO test [FLAGS] PACKAGES
#
# GO is the go command (the Makefile passes $(GO)). The -fuzz pattern is
# checked when there is one, since a fuzz leg's -run '^$' selects no test
# on purpose; otherwise the -run pattern is. `go test -list` lists what
# the whole pattern selects in PACKAGES, with the command's other flags
# (-race among them) so that it builds the test binary the command runs,
# and each alternative must match one listed test (a fuzz leg's, a fuzz
# test). Patterns are plain |-separated names: a '|' inside parentheses
# would be split too.
set -euo pipefail

cmd=("$@")
run='' fuzz='' flags=() pkgs=()
for ((i = 2; i < ${#cmd[@]}; i++)); do
    arg=${cmd[i]}
    case $arg in
    -run=*) run=${arg#-run=} ;;
    -run) run=${cmd[++i]} ;;
    -fuzz=*) fuzz=${arg#-fuzz=} ;;
    -fuzz) fuzz=${cmd[++i]} ;;
    -*) flags+=("$arg") ;;
    *) pkgs+=("$arg") ;;
    esac
done

pattern=$run kind='^(Test|Benchmark|Fuzz|Example)'
if [[ -n $fuzz ]]; then
    pattern=$fuzz kind='^Fuzz'
fi
if [[ -z $pattern ]]; then
    echo "gotest_named.sh: no -run or -fuzz pattern in: ${cmd[*]}" >&2
    exit 2
fi
listed=$("${cmd[0]}" test "${flags[@]}" -list "$pattern" "${pkgs[@]}")
names=$(grep -E "$kind" <<<"$listed" || true)
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
    if ! grep -Eq -- "$alt" <<<"$names"; then
        echo "gotest_named.sh: '$alt' of pattern '$pattern' names no ${fuzz:+fuzz }test in ${pkgs[*]}" >&2
        exit 1
    fi
done
exec "${cmd[@]}"
