#!/usr/bin/env python3
"""Summarise benchmark records and flag runs that should not be compared.

    python3 perfbench/compare.py .perfbench/results/*.json

Groups the records ``run.py`` writes by workload, trace mode and git
commit, and prints each metric's median, quartiles and run count per group.
Records of one workload whose backend or Python, numpy or scipy versions
differ are flagged: the L1 oracle alone differs by more than 10x between
the numba and numpy backends.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

ENV_KEYS = ("backend", "python", "numpy", "scipy", "nproc", "blas_threads")


def main(paths) -> int:
    groups = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if "env" not in rec:
            continue   # span files
        key = (rec["workload"], rec["trace"], rec["env"]["git_commit"] or "?")
        groups[key].append(rec)
    mismatched = False
    for workload in sorted({k[0] for k in groups}):
        envs = {tuple(r["env"][k] for k in ENV_KEYS)
                for key, recs in groups.items() if key[0] == workload
                for r in recs}
        if len(envs) > 1:
            mismatched = True
            print(f"WARNING {workload}: runs differ in {ENV_KEYS}: "
                  f"{sorted(envs)}")
    for (workload, trace, commit), recs in sorted(groups.items()):
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        print(f"\n{workload} trace={trace} commit={commit[:12]} runs={len(recs)}"
              f" failed={failed}/{attempted}")
        for name in sorted(recs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in recs]
            unit = recs[0]["metrics"][name]["unit"]
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            print(f"  {name:40s} {med:12.6g} {unit:12s}"
                  f" [{q1:.6g}, {q3:.6g}]")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
