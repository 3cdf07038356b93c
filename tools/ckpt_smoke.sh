#!/bin/sh
# Warm-up checkpoint store smoke, end to end through examples/runner:
#
#   1. a run on an empty ckpt_dir= warms up cold and publishes;
#   2. a second run restores that checkpoint;
#   3. two runners started together on another empty ckpt_dir= both
#      exit 0 (validated), leave one blob and no temp or lock file,
#      and a third run restores what they wrote.
#
# Usage (from the repository root): tools/ckpt_smoke.sh [build-dir]
set -eu

build="${1:-build}"
runner="$build/examples/runner"
work="$(mktemp -d "${TMPDIR:-/tmp}/sciq-ckpt-smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT

run() {
  "$runner" workload=swim iters=2000 ff=5000 ckpt_dir="$1" > "$2"
}

expect() {
  if ! grep -qx "checkpoint: $1" "$2"; then
    echo "expected 'checkpoint: $1' in $2:" >&2
    cat "$2" >&2
    exit 1
  fi
}

run "$work/serial" "$work/run1.txt"
expect cold "$work/run1.txt"
run "$work/serial" "$work/run2.txt"
expect restored "$work/run2.txt"

run "$work/shared" "$work/a.txt" &
a=$!
run "$work/shared" "$work/b.txt" &
b=$!
wait "$a"
wait "$b"
left="$(ls -A "$work/shared")"
if [ "$(echo "$left" | wc -l)" -ne 1 ] ||
   [ "${left%.sciqckpt}" = "$left" ]; then
  echo "concurrent runners should leave exactly one blob, left:" >&2
  echo "$left" >&2
  exit 1
fi
run "$work/shared" "$work/c.txt"
expect restored "$work/c.txt"
echo "checkpoint smoke: cold, restored; concurrent runners ok"
