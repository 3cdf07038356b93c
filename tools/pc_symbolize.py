#!/usr/bin/env python3
"""Turn a tools/pc_sampler.cc histogram into a table of functions.

Usage, from the directory the sampled program ran in:

    python3 tools/pc_symbolize.py HISTOGRAM

Each sampled address is resolved with `addr2line -i -f -C` (the module
needs debug info, -g). With -i, addr2line lists the chain of functions
inlined at that address from the innermost out. The samples are
grouped by the outermost one, the function the compiler emitted, so a
function that inlines its helpers (a flattened hot loop) is one row.
The offsets are module-relative, which is what addr2line expects for
the position-independent executables and libraries this build makes.
Addresses that cannot be resolved are grouped as "?? (<module>)". The
30 largest functions are listed.
"""

import argparse
import collections
import os
import subprocess
import sys

TOP_ROWS = 30


def resolve(module, offsets):
    """Map each offset to the function its samples are grouped under."""
    names = {}
    fallback = f"?? ({os.path.basename(module)})"
    if module == "?" or not os.path.isfile(module):
        return {off: fallback for off in offsets}
    addrs = [hex(off) for off in offsets]
    try:
        out = subprocess.run(
            ["addr2line", "-i", "-f", "-C", "-a", "-e", module],
            input="\n".join(addrs) + "\n", capture_output=True, text=True,
            check=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"pc_symbolize: addr2line failed on {module}: {e}")
    # Output per address: "0x<addr>", then (function, file:line) pairs
    # from the innermost inlined frame out.
    chains = []
    for line in out:
        if line.startswith("0x"):
            chains.append([])
        elif chains:
            chains[-1].append(line)
    for off, chain in zip(offsets, chains):
        if len(chain) < 2 or chain[0] == "??":
            names[off] = fallback
        else:
            names[off] = chain[-2]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("histogram")
    args = ap.parse_args()

    by_module = collections.defaultdict(dict)
    total = 0
    with open(args.histogram) as f:
        for line in f:
            count, rest = line.split(None, 1)
            module, off = rest.rsplit(None, 1)
            by_module[module][int(off, 16)] = int(count)
            total += int(count)
    if total == 0:
        sys.exit("pc_symbolize: no samples")

    per_name = collections.Counter()
    for module, hist in by_module.items():
        offsets = sorted(hist)
        names = resolve(module, offsets)
        for off in offsets:
            per_name[names[off]] += hist[off]

    print(f"{total} samples in {len(per_name)} functions")
    print(f"{'share':>7} {'samples':>8}  function")
    for name, n in per_name.most_common(TOP_ROWS):
        if len(name) > 110:  # template instantiations run to pages
            name = name[:107] + "..."
        print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")


if __name__ == "__main__":
    main()
