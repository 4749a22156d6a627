#!/bin/sh
# Reports the added, removed and net lines of non-test Go code between a
# base ref and the working tree (tests, *_test.go, are left out). New files
# count once they are staged with git add. Optional path arguments narrow
# the count to those directories.
# Usage: ./scripts/loc.sh <base-ref> [path...]
set -e

if [ $# -lt 1 ]; then
    echo "usage: $0 <base-ref> [path...]" >&2
    exit 2
fi
base=$1
shift

cd "$(dirname "$0")/.."
git diff --numstat "$base" -- ${@:+"$@"} | awk '
    $3 ~ /\.go$/ && $3 !~ /_test\.go$/ && $1 != "-" { add += $1; del += $2 }
    END { printf "non-test Go lines: +%d -%d net %+d\n", add, del, add - del }'
