"""Output checks that decide whether a benchmark solve counts as failed.

``run_construct`` itself gates none of the final residuals, so the
benchmark re-checks the certificates it returns against the run's own
tolerances, and checks that a workload's artifacts are byte-identical
across runs of the same inputs on the same source tree.
"""

import glob
import hashlib
import json
import os

ARTIFACTS = ("psi.blf1", "phi.blf1", "phi_sm.blf1")

# Wannier band norms are sums of |w|^2 over the whole window; the FFT keeps
# them at 1 to within a few ulps per grid point.
BAND_NORM_TOL = 1e-10

# The mismatch between reductions that ``extend_symmetric`` accepts by
# default.  Fixed here, so that loosening the package's default does not
# loosen this check; the selftest flags a default that drifts from it.
EXTENSION_TOL = 1e-10


def check_solve(manifest, wannier_report, config):
    """List every certificate of one construct + wannierize that misses its bound."""
    failures = []
    for name, value in sorted(manifest["final_residuals"].items()):
        if not value <= config.tol:
            failures.append(f"final residual {name} = {value:.3e} > tol {config.tol:.0e}")
    mismatch = manifest["extension_mismatch"]
    if not mismatch <= EXTENSION_TOL:
        failures.append(f"extension mismatch {mismatch:.3e} > {EXTENSION_TOL:.0e}")
    moved = manifest["smoothing"]["sup_distance_total"]
    if not moved < config.epsilon:
        failures.append(f"smoothing moved the frame by {moved:.3e} >= epsilon {config.epsilon}")
    reality = wannier_report["reality"]["defect"]
    if not reality <= config.tol:
        failures.append(f"Wannier reality defect {reality:.3e} > tol {config.tol:.0e}")
    worst_norm = max(abs(x - 1.0) for x in wannier_report["band_norms"])
    if not worst_norm <= BAND_NORM_TOL:
        failures.append(f"Wannier band norm off 1 by {worst_norm:.3e}")
    control = wannier_report["control_reality"]["defect"]
    if not control > reality:
        failures.append(
            f"raw-frame control defect {control:.3e} does not exceed the "
            f"reality defect {reality:.3e}")
    return failures


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(out_dir, manifest):
    """sha256 of each frame artifact; a manifest that disagrees is a failure."""
    digests = {name: file_digest(os.path.join(out_dir, name)) for name in ARTIFACTS}
    failures = [
        f"{name}: manifest sha256 does not match the file"
        for name in ARTIFACTS
        if manifest.get("artifacts", {}).get(name) != digests[name]
    ]
    return digests, failures


def source_digest(src_dir):
    """sha256 over the package sources, standing in for the commit."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def ledger_key(workload, config, src_dir):
    """Names a workload's inputs on one source tree."""
    h = hashlib.sha256(json.dumps(
        {"model": config.model, "params": config.params, "grid_n": config.grid_n,
         "epsilon": config.epsilon, "tol": config.tol, "seed": config.seed},
        sort_keys=True).encode())
    if os.path.isfile(config.model):
        with open(config.model, "rb") as fh:
            h.update(fh.read())
    return f"{workload}|{source_digest(src_dir)}|{h.hexdigest()}"


class DigestLedger:
    """Artifact digests per (source tree, inputs), kept across runs in a file.

    The first run of given inputs records its digests; every later run of
    the same inputs on the same sources must reproduce them.
    """

    def __init__(self, path):
        self.path = path
        try:
            with open(path) as fh:
                self.entries = json.load(fh)
        except FileNotFoundError:
            self.entries = {}

    def check(self, key, digests):
        expected = self.entries.setdefault(key, digests)
        return [
            f"{name} differs from an earlier run of the same inputs"
            for name in ARTIFACTS
            if expected[name] != digests[name]
        ]

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
