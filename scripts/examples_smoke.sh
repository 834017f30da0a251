#!/usr/bin/env bash
# Runs every example script (not the `common.py` helper) with its
# default arguments and fails on the first non-zero exit, printing that
# example's output.  Each runs from a temporary directory, because
# `trace_flash_crowd.py` writes its trace and metrics files into the
# working directory; the directory is removed afterwards.
#
#   scripts/examples_smoke.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

for example in "$root"/examples/*.py; do
  name="$(basename "$example")"
  [ "$name" = common.py ] && continue
  echo "-- $name"
  if ! (cd "$workdir" && PYTHONPATH="$root/src" python "$example" > "$workdir/$name.log" 2>&1); then
    cat "$workdir/$name.log"
    echo "example $name failed" >&2
    exit 1
  fi
done
