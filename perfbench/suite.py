"""Every workload, untraced and traced, in one table.

Run from the repository root::

    python3 perfbench/suite.py --seed 0 --seconds 50

Each (workload, trace) pair runs ``run.py`` in its own fresh process, one
at a time, and the table shows every metric with its unit per workload,
``n/a`` where a layer was not called, plus ``failed_frac``: failed solves
over attempted ones.  ``twisted-2d`` is included although
``BENCHMARK.json`` leaves it out, because its certificates fail (see
``README.md``).  Each ``trs-3d`` run takes about a minute.
"""

import argparse
import json
import os
import subprocess
import sys

from run import END_TO_END, PER_LAYER
from tracing import SELF_TIME_METRICS
from workloads import WORKLOADS

# per-layer metrics that are self times of spans a workload may never open
_MAY_BE_ABSENT = set(SELF_TIME_METRICS.values()) | {"cells.reduction_hit_ratio"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args(argv)

    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    table = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, script, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            column = table.setdefault(workload, {})
            for name, metric in result["metrics"].items():
                absent = name in _MAY_BE_ABSENT and metric["value"] == 0
                column[name] = None if absent else metric["value"]
            column[f"failed_frac.trace{trace}"] = (
                result["failed"] / result["attempted"])

    rows = [(n, u) for n, u in END_TO_END.items()]
    rows += [("failed_frac.trace0", "ratio"), ("failed_frac.trace1", "ratio")]
    rows += [(n, u) for n, u in PER_LAYER.items()]
    print(f"{'metric':32s} {'unit':6s}" + "".join(f"{w:>14s}" for w in table))
    for name, unit in rows:
        cells = ("n/a" if table[w][name] is None else f"{table[w][name]:.4g}"
                 for w in table)
        print(f"{name:32s} {unit:6s}" + "".join(f"{c:>14s}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
