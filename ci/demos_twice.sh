#!/usr/bin/env bash
# Runs every demo twice and fails unless both runs print the same output.
#
# Usage: ci/demos_twice.sh COMMAND...
#   COMMAND runs a Python script, e.g. `env -u PYTHONPATH python` against the
#   installed package, or `python` with PYTHONPATH set to the absolute path of
#   src: the demos run in a temporary directory.
set -eo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
demos=$(cd "$(dirname "$0")/../demos" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
for demo in "$demos"/*.py; do
  name=$(basename "$demo" .py)
  "$@" "$demo" > "$name.1.txt"
  "$@" "$demo" > "$name.2.txt"
  cmp "$name.1.txt" "$name.2.txt"
done
