"""Command line entry point.

Subcommands: ``verify-model``, ``construct``, ``wannierize``, ``report``.
Heavy imports happen after argument parsing so that ``--threads`` can cap
the linear-algebra thread pools before they initialize.  Failures print a
machine-readable JSON object on stderr carrying the stable error code and
location details; the exit code is 2 for usage problems and 1 for every
other fatal condition.  ``construct``, ``wannierize`` and ``report`` print
their certificate rows (:mod:`~blochframe.certify`) and, when a row misses
its bound, exit 1 with ``certificate-failed`` after writing everything.
"""

import argparse
import json
import os
import sys

__all__ = ["main", "build_parser"]


def _parse_param(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"parameter {text!r} is not of the form key=value"
        )
    key, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _add_common(parser):
    parser.add_argument("--model", required=True,
                        help="built-in model name or path to a model config")
    parser.add_argument("--param", action="append", default=[],
                        type=_parse_param, metavar="KEY=VAL",
                        help="model parameter (repeatable)")
    parser.add_argument("--grid-n", type=int, default=16,
                        help="half the grid points per axis (even, >= 2)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="construction and verification tolerance")
    parser.add_argument("--gap-tol", type=float, default=None,
                        help="smallest admissible spectral gap (default: the "
                             "model's gap_tolerance, 1e-8 for built-in models)")
    parser.add_argument("--epsilon", type=float, default=0.1,
                        help="smoothing distance budget")
    parser.add_argument("--out", default=None,
                        help="artifact output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized choice")
    parser.add_argument("--threads", type=int, default=1,
                        help="cap for linear-algebra worker threads")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blochframe",
        description="Symmetric Bloch frames and real localized Wannier "
                    "functions for gapped tight-binding models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("verify-model", "check the structural assumptions of a model"),
        ("construct", "build the symmetric smooth frame and its certificates"),
        ("wannierize", "transform to Wannier functions and measure them"),
        ("report", "print the consolidated certificate of a finished run"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _apply_thread_cap(threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def main(argv=None):
    args = build_parser().parse_args(argv)
    # RunConfig refuses a count below 1 with a usage error
    if args.threads >= 1:
        _apply_thread_cap(args.threads)

    from .certify import format_rows, rows, verdict
    from .errors import BlochFrameError, CertificateFailed, UsageError
    from .pipeline import (
        RunConfig,
        report_rows,
        run_construct,
        run_verify,
        run_wannierize,
    )

    try:
        config = RunConfig(
            model=args.model,
            params=dict(args.param),
            grid_n=args.grid_n,
            tol=args.tol,
            gap_tol=args.gap_tol,
            epsilon=args.epsilon,
            out=args.out,
            seed=args.seed,
            threads=args.threads,
        )
        if args.command == "verify-model":
            _, report = run_verify(config)
            for key, val in report.as_dict().items():
                print(f"{key}: {val}")
            return 0 if report.passed else 1
        if args.command == "construct":
            table = rows(run_construct(config)["manifest"], None, config)
        elif args.command == "wannierize":
            table = rows(None, run_wannierize(config)["report"], config)
        else:
            table = report_rows(config)
        print(format_rows(table))
        if config.out and args.command != "report":
            print(f"artifacts written to {config.out}")
        failed = verdict(table)
        if failed:
            raise CertificateFailed(
                "certificates miss their bound: " + ", ".join(row[0] for row in failed),
                failed=[{"name": name, "value": value, "bound": bound}
                        for name, value, bound, _ in failed],
            )
        return 0
    except UsageError as err:
        _emit_error(err)
        return 2
    except BlochFrameError as err:
        _emit_error(err)
        return 1


def _emit_error(err):
    payload = {
        "error": err.code,
        "message": err.args[0],
        "details": _safe_details(err.details),
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _safe_details(details):
    try:
        json.dumps(details)
        return details
    except TypeError:
        return {k: repr(v) for k, v in details.items()}


if __name__ == "__main__":
    sys.exit(main())
