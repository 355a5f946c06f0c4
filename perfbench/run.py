"""Time-to-certificate benchmark of blochframe.

Run from the repository root::

    python3 perfbench/run.py --workload haldane-2d --seed 1 --seconds 50 --trace 0

One run is one fresh process working on one workload.  It builds the
workload's inputs from the seed, then repeats a *solve* (``run_construct``
followed by ``run_wannierize`` on the same artifact directory) as often as
fits in ``--seconds``, checking every solve's certificates and artifact
digests.  With ``--trace 0`` it reports the end-to-end metrics, and with
``--trace 1`` it traces every solve and reports the per-layer metrics (see
``tracing.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every end-to-end time reported is the median of the run's repetitions; the
table above the JSON line also shows the fastest and the count.

Linear algebra runs on one thread, as with the command line's default.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from checks import DigestLedger, artifact_digests, check_solve, ledger_key
from tracing import Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKDIR = ".perfbench_out"
SETUP_REPEATS = 11

END_TO_END = {
    "solve_s": "s",
    "construct_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "models.eigh_calls": "count",
    "models.eigh_per_point": "count",
    "models.bloch_s": "s",
    "models.hamiltonian_s": "s",
    "models.verify_s": "s",
    "models.load_s": "s",
    "frames.input_frame_s": "s",
    "frames.control_frame_s": "s",
    "wannier.extend_symmetric_s": "s",
    "cells.reduction_calls": "count",
    "cells.reduction_hit_ratio": "ratio",
    "face2d.construct_2d_self_s": "s",
    "cell3d.construct_3d_self_s": "s",
    "extension.cone_s": "s",
    "smoothing.periodic_smooth_s": "s",
    "smoothing.cutoffs_tried": "count",
    "smoothing.retries": "count",
    "smoothing.symmetrize_s": "s",
    "pipeline.obstructions_s": "s",
    "pipeline.final_residuals_s": "s",
    "pipeline.wannierize_s": "s",
    "pipeline.unattributed_s": "s",
    "wannier.transform_s": "s",
    "wannier.reality_check_s": "s",
    "wannier.localization_s": "s",
    "io.save_frames_s": "s",
    "io.load_frames_s": "s",
    "io.sha256_s": "s",
    "io.write_wannier_s": "s",
    "io.bytes_written": "bytes",
    "trace.solve_s": "s",
    "trace.overhead_frac": "ratio",
}

# Imports the package and loads the model, then prints the monotonic clock
# (shared by all processes), so the parent can time the fresh process.
_SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from blochframe import RunConfig
from blochframe.pipeline import load_family
load_family(RunConfig(**json.loads(sys.argv[2])))
print(time.monotonic())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--grid-n", type=int, default=None,
                        help="override the workload's grid (smoke tests)")
    return parser.parse_args(argv)


def measure_setup(src, config):
    """Times from spawning a fresh interpreter to a loaded model."""
    fields = {"model": config.model, "params": config.params,
              "grid_n": config.grid_n, "seed": config.seed}
    cmd = [sys.executable, "-c", _SETUP_PROBE, src, json.dumps(fields)]
    times = []
    # the first spawn pays for compiling bytecode, which users do not
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times[1:]


def solve(bf, config, out_dir):
    """One construct + wannierize on a fresh artifact directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    config.out = out_dir
    t0 = time.perf_counter()
    built = bf.pipeline.run_construct(config)
    t1 = time.perf_counter()
    wannier = bf.pipeline.run_wannierize(config)
    t2 = time.perf_counter()
    return {"construct_s": t1 - t0, "solve_s": t2 - t0,
            "manifest": built["manifest"], "report": wannier["report"]}


class Runner:
    """Solves one workload repeatedly and keeps the verdict of each solve."""

    def __init__(self, bf, name, config, workdir, ledger_key):
        self.bf = bf
        self.name = name
        self.config = config
        self.out_dir = os.path.join(workdir, "out")
        self.ledger = DigestLedger(os.path.join(WORKDIR, "digests.json"))
        self.ledger_key = ledger_key
        self.attempted = 0
        self.failures = []

    def run(self, fn=solve):
        """One checked solve; returns its timings, or None if it raised."""
        self.attempted += 1
        try:
            result = fn(self.bf, self.config, self.out_dir)
        except Exception:
            self.failures.append(
                f"solve {self.attempted} raised:\n{traceback.format_exc()}")
            return None
        problems = check_solve(result["manifest"], result["report"], self.config)
        digests, mismatch = artifact_digests(self.out_dir, result["manifest"])
        problems += mismatch + self.ledger.check(self.ledger_key, digests)
        self.ledger.save()
        if problems:
            self.failures.append(
                f"solve {self.attempted}: " + "; ".join(problems))
        return result

    @property
    def failed(self):
        return len(self.failures)


def repeat(runner, seconds, fn=solve):
    """Checked solves that fit in ``seconds`` (at least one).

    A solve starts only if one more of the last one's length still fits,
    so a run takes ``seconds`` plus set-up, whatever the solve length.
    Gives up if the first three solves raise.
    """
    done = []
    start = time.perf_counter()
    last = 0.0
    while not done or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        result = runner.run(fn)
        last = time.perf_counter() - t0
        if result is not None:
            done.append(result)
        elif not done and runner.attempted >= 3:
            break
    return done


def untraced_metrics(runner, src, seconds):
    """Samples of every end-to-end metric."""
    setup = measure_setup(src, runner.config)
    solves = repeat(runner, seconds)
    if not solves:
        return None
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_s": [r["solve_s"] for r in solves],
        "construct_s": [r["construct_s"] for r in solves],
        "setup_s": setup,
        "peak_rss_mb": [peak_kib / 1024.0],
    }


def traced_metrics(runner, seconds, spans_path):
    """Per-layer metrics of the fastest traced solve."""
    tracer = Tracer(runner.bf)

    def traced_solve(bf, config, out_dir):
        tracer.run_id = f"{runner.name}-seed{config.seed}-{runner.attempted}"
        tracer.reset_counters()
        tracer.install()
        try:
            result = tracer.span("solve", solve, bf, config, out_dir)
        finally:
            tracer.restore()
        dimension = result["manifest"]["model"]["dimension"]
        layers = tracer.solve_metrics(tracer.run_id,
                                      (2 * config.grid_n) ** dimension)
        layers["io.bytes_written"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        return dict(result, layers=layers)

    solves = repeat(runner, seconds, traced_solve)
    tracer.write(spans_path)
    if not solves:
        return None
    # one solve's metrics, so that its self times still add up
    fastest = min(solves, key=lambda r: r["solve_s"])
    return {name: [value] for name, value in fastest["layers"].items()}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "blochframe", "__init__.py")):
        print("error: no blochframe package under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # numpy reads the thread variables when first imported
    import blochframe as bf
    from workloads import WORKLOADS, run_config

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    config = run_config(args.workload, args.seed, workdir, grid_n=args.grid_n)
    runner = Runner(bf, args.workload, config, workdir,
                    ledger_key(args.workload, config, src))

    if args.trace:
        spans_path = os.path.join(workdir, f"spans-seed{args.seed}.json")
        samples_of = traced_metrics(runner, args.seconds, spans_path)
        units = PER_LAYER
    else:
        samples_of = untraced_metrics(runner, src, args.seconds)
        units = END_TO_END
    for failure in runner.failures:
        print(f"FAILED {failure}")
    if samples_of is None:
        print("error: no solve completed", file=sys.stderr)
        return 1

    print(f"{args.workload} seed={args.seed} grid_n={config.grid_n} "
          f"solves={runner.attempted}")
    value = {}
    for name, unit in units.items():
        samples = samples_of[name]
        value[name] = None if samples[0] is None else statistics.median(samples)
        shown = "n/a" if value[name] is None else f"{value[name]:.6g}"
        extra = (f"  (fastest {min(samples):.6g} of {len(samples)})"
                 if len(samples) > 1 else "")
        print(f"  {name:32s} {shown:>14s} {unit}{extra}")
    print(f"  {'failed_frac':32s} {runner.failed / runner.attempted:14.6g} ratio")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # a layer the workload never calls reads 0 here and n/a above
        "metrics": {name: {"value": value[name] or 0, "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
