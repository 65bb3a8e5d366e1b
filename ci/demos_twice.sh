#!/usr/bin/env bash
# Runs every demo twice and fails unless both runs exit 0, print the same
# output and leave their own empty TMPDIR empty. Prints `ok NAME` or
# `FAIL NAME` for each demo, with the reason on stderr, and goes on to the
# next demo after a failure.
#
# Usage: ci/demos_twice.sh COMMAND...
#   COMMAND runs a Python script, e.g. `env -u PYTHONPATH python` against the
#   installed package, or `python` with PYTHONPATH set to the absolute path of
#   src: the demos run in a temporary directory.
set -o pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
demos=$(cd "$(dirname "$0")/../demos" && pwd) || exit 2
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

# check NAME DEMO COMMAND...: both runs of one demo, in a fresh empty TMPDIR.
check() {
  local name=$1 demo=$2 run
  shift 2
  rm -rf tmp && mkdir tmp || return 1
  for run in 1 2; do
    if ! TMPDIR="$work/tmp" "$@" "$demo" > "$name.$run.txt"; then
      echo "$name: run $run exited nonzero" >&2
      return 1
    fi
    if [ -n "$(ls -A tmp)" ]; then
      echo "$name left files in its TMPDIR:" $(ls -A tmp) >&2
      return 1
    fi
  done
  cmp "$name.1.txt" "$name.2.txt" >&2
}

status=0
for demo in "$demos"/*.py; do
  name=$(basename "$demo")
  if check "$name" "$demo" "$@"; then
    echo "ok $name"
  else
    echo "FAIL $name"
    status=1
  fi
done
exit $status
