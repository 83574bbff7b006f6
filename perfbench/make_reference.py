"""Regenerate perfbench/reference.json: one operation per workload and
size at REFERENCE_SEED, run from the root of a checkout.

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to move the referenced values;
say so where the change is described.
"""

import json
import os
import sys

import workloads
from run import REFERENCE, spawn

REFERENCE_SEED = 0


def main():
    root = os.getcwd()
    out = {"reference_seed": REFERENCE_SEED}
    for size_name, sizes in workloads.SIZES.items():
        out[size_name] = {}
        for workload, size in sizes.items():
            spec = {"workload": workload, "seed": REFERENCE_SEED, "size": size,
                    "src": os.path.join(root, "src"), "trace": False}
            op = spawn(spec, root)
            if "error" in op:
                sys.exit(f"{workload} ({size_name}): {op['error']}")
            out[size_name][workload] = workloads.reference_entry(workload, op)
            print(f"{size_name} {workload}: {op['run_s']:.2f} s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
