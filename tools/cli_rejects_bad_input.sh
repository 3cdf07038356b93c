#!/bin/sh
# Bad command-line input must exit 2 with an ERROR naming the offending
# token, not crash, hang, wrap around or run a default simulation.
# Usage: cli_rejects_bad_input.sh RUNNER FIG3_SIZE_SWEEP CUSTOM_WORKLOAD \
#            FIG2_RELATIVE_PERFORMANCE DESIGN_SPACE
runner=$1 fig3=$2 custom=$3 fig2=$4 design=$5
failed=0

# expect TOKEN PROGRAM ARGS...: exit 2, and TOKEN in the message.
expect() {
    token=$1
    shift
    out=$("$@" 2>&1)
    code=$?
    if [ "$code" -ne 2 ] || ! printf '%s\n' "$out" | grep -q -- "$token"; then
        echo "FAIL: $* -> exit $code, wanted 2 naming '$token':"
        printf '%s\n' "$out" | tail -n 3
        failed=1
    fi
}

expect "seg_size" "$runner" seg_size=0
expect "bogus" "$runner" iq=bogus
expect "abc" "$runner" iters=abc
expect "'-1'" "$runner" iters=-1 max_cycles=1000
expect "'--help'" "$runner" --help
expect "abc" "$fig3" iters=abc
expect "'iq_size'" "$custom" iq_size=64
# Geometry that is invalid only in combination with other keys.
expect "'iq_size'" "$runner" iq_size=100
expect "'iq_size'" "$runner" iq=prescheduled iq_size=100
expect "bogus" "$runner" workload=bogus
# Keys a bench or example reads itself.
expect "abc" "$fig2" iq_size=abc
expect "abc" "$design" iters=abc
# Deleted keys.
expect "'ckpt_dir'" "$runner" ckpt_dir=x
expect "'bb_cache'" "$runner" bb_cache=0
expect "'fault_ckpt_corrupt'" "$runner" fault_ckpt_corrupt=1
exit $failed
