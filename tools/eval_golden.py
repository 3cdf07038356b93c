#!/usr/bin/env python3
"""Pin the evaluation: rerun the 8 evaluation benches at quick=1 and
compare them with tests/golden/evaluation.json (with --full, at full
length against tests/golden/evaluation_full.json).

For each bench the golden holds the FNV-1a-64 of its stdout and, for
each bench_out row, the FNV-1a-64 of the row with its host-dependent
fields masked, plus the row's cycles and insts.  On a mismatch the
first differing bench and row are named and the exit status is 1.

    tools/eval_golden.py --bench-dir build/bench            # check
    tools/eval_golden.py --bench-dir build/bench --update   # rewrite
    tools/eval_golden.py --bench-dir build/bench --full     # ~31 s, jobs=4, 4 vCPUs

Any regeneration is a change to simulated results: list the changed
rows in CHANGES.md and say why in EXPERIMENTS.md.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCHES = [
    "fig2_relative_performance",
    "fig3_size_sweep",
    "table2_chain_usage",
    "text_predictor_stats",
    "text_occupancy",
    "ablation_enhancements",
    "ablation_geometry",
    "ablation_power",
]
QUICK_ARGS = ["quick=1", "jobs=4"]
FULL_ARGS = ["jobs=4"]
# Host time, warming rates, block-cache and host-work counters and the
# checkpoint-reuse flag vary with the host or the scheduler, not with
# the simulated result.
MASKED_PREFIXES = ("host_", "warm_", "bbcache_", "iq_work_")
MASKED_KEYS = ("ckpt_restored",)

GOLDEN_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "golden"))


def fnv64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xffffffffffffffff
    return "%016x" % h


def masked(row):
    return {k: ("masked" if k.startswith(MASKED_PREFIXES) or
                k in MASKED_KEYS else v)
            for k, v in row.items()}


def label(row):
    return "%s %s-%s chains=%s" % (row["workload"], row["iq_kind"],
                                   row["iq_size"], row["chains"])


def run_bench(bench_dir, name, bench_args, tmp):
    out = os.path.join(tmp, name + ".json")
    proc = subprocess.run([os.path.join(bench_dir, name)] + bench_args +
                          ["bench_out=" + out],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit("eval_golden: %s exited %d" % (name,
                                                        proc.returncode))
    with open(out) as f:
        rows = json.load(f)
    return {
        "name": name,
        "stdout_fnv64": fnv64(proc.stdout),
        "rows": [{
            "row": label(r),
            "fnv64": fnv64(json.dumps(masked(r), sort_keys=True).encode()),
            "cycles": r["cycles"],
            "insts": r["insts"],
        } for r in rows],
    }


def write_golden(path, bench_args, benches):
    # One row per line, so a regeneration diffs row by row.
    lines = ['{', ' "args": %s,' % json.dumps(bench_args), ' "benches": [']
    for bi, b in enumerate(benches):
        lines.append('  {"name": %s, "stdout_fnv64": %s, "rows": [' %
                     (json.dumps(b["name"]), json.dumps(b["stdout_fnv64"])))
        for ri, r in enumerate(b["rows"]):
            lines.append('   ' + json.dumps(r) +
                         (',' if ri + 1 < len(b["rows"]) else ''))
        lines.append('  ]}' + (',' if bi + 1 < len(benches) else ''))
    lines += [' ]', '}']
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def first_mismatch(want, got):
    """Describe the first difference between two bench records, or None."""
    for i, (w, g) in enumerate(zip(want["rows"], got["rows"])):
        if w != g:
            fields = [k for k in ("row", "cycles", "insts", "fnv64")
                      if w.get(k) != g.get(k)]
            return "row %d (%s): %s differ; golden %s, now %s" % (
                i, w["row"], ", ".join(fields), json.dumps(w), json.dumps(g))
    if len(want["rows"]) != len(got["rows"]):
        return "%d rows in the golden, %d now" % (len(want["rows"]),
                                                  len(got["rows"]))
    if want["stdout_fnv64"] != got["stdout_fnv64"]:
        return "stdout differs (every row matches)"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding the bench binaries")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from this run")
    ap.add_argument("--full", action="store_true",
                    help="run the benches at full length (no quick=1) "
                         "against evaluation_full.json")
    args = ap.parse_args()
    bench_args = FULL_ARGS if args.full else QUICK_ARGS
    golden_path = os.path.join(GOLDEN_DIR, "evaluation_full.json"
                               if args.full else "evaluation.json")

    with tempfile.TemporaryDirectory() as tmp:
        got = [run_bench(args.bench_dir, name, bench_args, tmp)
               for name in BENCHES]

    if args.update:
        write_golden(golden_path, bench_args, got)
        print("wrote %d benches, %d rows to %s" %
              (len(got), sum(len(b["rows"]) for b in got), golden_path))
        return 0

    with open(golden_path) as f:
        golden = json.load(f)
    if golden["args"] != bench_args:
        print("eval_golden: golden recorded with %s, this run uses %s" %
              (golden["args"], bench_args))
        return 1
    want = {b["name"]: b for b in golden["benches"]}
    for b in got:
        if b["name"] not in want:
            print("eval_golden: %s has no golden record" % b["name"])
            return 1
        diff = first_mismatch(want[b["name"]], b)
        if diff:
            print("eval_golden: %s mismatch at %s" % (b["name"], diff))
            return 1
    print("eval_golden: %d benches, %d rows match" %
          (len(got), sum(len(b["rows"]) for b in got)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
