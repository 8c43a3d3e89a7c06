#!/usr/bin/env bash
# Mutation check: copies the module to a temporary directory, applies
# each mutant listed in mutants.txt in turn, and runs the tests named
# for it. A mutant survives if those tests still pass; the script exits
# 1 if any mutant survives or fails to build.
#
#   bash testdata/mutants/run.sh            # every mutant (make mutants)
#   bash testdata/mutants/run.sh NAME...    # only these
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./.git --exclude=./.bench_build --exclude=./benchmark/out \
    --exclude=./.tracecache --exclude=./traces -cf - . | tar -C "$work" -xf -

bad=0
while read -r name pkg tests; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    if (($# > 0)) && [[ " $* " != *" $name "* ]]; then
        continue
    fi
    patch -s -d "$work" -p1 < "$here/$name.patch"
    if ! (cd "$work" && go vet "$pkg" > "$work/.mutant.log" 2>&1); then
        echo "BROKEN   $name: does not build"; cat "$work/.mutant.log"; bad=1
    elif (cd "$work" && go test -count=1 -run "$tests" "$pkg" > "$work/.mutant.log" 2>&1); then
        echo "SURVIVED $name: go test -run '$tests' $pkg passes"; bad=1
    else
        echo "killed   $name by $tests"
    fi
    patch -s -R -d "$work" -p1 < "$here/$name.patch"
done < "$here/mutants.txt"
exit $bad
