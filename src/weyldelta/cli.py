"""Experiment harness: `weyl-delta <subcommand> [--flag value]...`

Subcommands
-----------
verify       run a verification suite (voronoi | delta | statphase |
             pipeline | afe | scan | all) and write a JSON report
scan         growth scan over a t-range, CSV of (t, |L|) plus the report
calibrate    fit the dual-summation constant eta for a form
export-form  write the built-in discriminant form to a coefficient file
import-form  parse and validate a coefficient file

The checks are defined once, in :mod:`weyldelta.checks`; `verify <suite>`
runs that suite's entries of the list (`all`: every suite, in the order
delta, statphase, voronoi, pipeline, afe, scan) and the acceptance gate
asserts the same entries. Reports are JSON with stable key order;
everything under the "timing" key (each check's wall clock) is excluded
from the determinism guarantee (identical suite and seed reproduce the
rest byte for byte). Scan/probe points go to CSV with a header row and
plain decimal formatting. The env variable WEYL_DELTA_BUDGET (or
`--budget`) caps the oscillatory-quadrature cell count and the
stratum-sum evaluation count. Exit codes: 0 all checks pass, 1 check
failure, 2 budget exhausted, 3 input/parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .checks import SUITES, CheckContext, CheckResult, calibrate, checks_for, fmt_complex
from .errors import BudgetExceededError, FormFileError, HeckeViolationError
from .forms import delta_form, export_form, load_form

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def run_suite(suite: str, ctx: CheckContext):
    """(results, status) of the suite's checks, stopping at an exhausted budget."""
    results: List[CheckResult] = []
    try:
        for check in checks_for(suite):
            results.append(check.run(ctx))
    except BudgetExceededError:
        return results, EXIT_BUDGET
    return results, EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def suite_report(suite: str, ctx: CheckContext, results: List[CheckResult], status: int) -> Dict:
    return {
        "suite": suite,
        "seed": ctx.seed,
        "checks": [
            {
                "name": r.name,
                "anchor": r.anchor,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "values": r.values,
            }
            for r in results
        ],
        "calibration": ctx.calibration,
        "all_passed": all(r.passed for r in results),
        "budget_exhausted": status == EXIT_BUDGET,
        "timing": {r.name: r.runtime for r in results},
    }


def _write_report(report: Dict, path: Optional[str]):
    text = json.dumps(report, sort_keys=True, indent=1)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_scan_csv(scan, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "l_abs", "n_used", "tail_estimate", "flagged"])
        for r in scan.records:
            writer.writerow([repr(r.t), repr(r.l_abs), r.n_used, repr(r.tail_estimate), int(r.flagged)])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="weyl-delta", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.add_argument("--form", dest="form_path")
    p_verify.add_argument("--output", dest="output_path")
    p_verify.add_argument("--csv", dest="csv_path")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=None)
    p_verify.add_argument("--t-min", type=float, default=10.0)
    p_verify.add_argument("--t-max", type=float, default=500.0)
    p_verify.add_argument("--samples", type=int, default=200)

    p_scan = sub.add_parser("scan", help="growth scan along the critical line")
    p_scan.add_argument("--t-min", type=float, default=10.0)
    p_scan.add_argument("--t-max", type=float, default=500.0)
    p_scan.add_argument("--samples", type=int, default=200)
    p_scan.add_argument("--form", dest="form_path")
    p_scan.add_argument("--output", dest="output_path")
    p_scan.add_argument("--csv", dest="csv_path")
    p_scan.add_argument("--seed", type=int, default=0)

    p_cal = sub.add_parser("calibrate", help="calibrate the dual-sum constant eta")
    p_cal.add_argument("--form", dest="form_path")
    p_cal.add_argument("--output", dest="output_path")

    p_exp = sub.add_parser("export-form", help="write the built-in form to a file")
    p_exp.add_argument("path")
    p_exp.add_argument("--n-max", type=int, default=10000)

    p_imp = sub.add_parser("import-form", help="parse and validate a coefficient file")
    p_imp.add_argument("path")

    args = parser.parse_args(argv)

    budget = None
    budget_env = os.environ.get("WEYL_DELTA_BUDGET")
    if budget_env:
        budget = int(budget_env)
    if getattr(args, "budget", None) is not None:
        budget = args.budget

    try:
        if args.command == "export-form":
            export_form(delta_form(args.n_max), args.path)
            print(f"wrote {args.path}")
            return EXIT_OK
        if args.command == "import-form":
            form = load_form(args.path)
            print(
                f"loaded {args.path}: {form.kind.family}, level {form.level}, "
                f"{form.n_max} coefficients"
            )
            return EXIT_OK
        if args.command == "calibrate":
            form = load_form(args.form_path) if args.form_path else delta_form(20000)
            eta = calibrate(form)
            report = {
                "eta": fmt_complex(eta),
                "eta_modulus_raw": form.eta_modulus_raw,
                "probe_spread": form.eta_probe_spread,
            }
            _write_report(report, args.output_path)
            return EXIT_OK
        # verify and scan
        suite = "scan" if args.command == "scan" else args.suite
        ctx = CheckContext(
            seed=args.seed,
            budget=budget,
            form_path=args.form_path,
            scan_grid=np.linspace(args.t_min, args.t_max, args.samples),
            checks=checks_for(suite),
        )
        results, status = run_suite(suite, ctx)
        if args.csv_path and "scan" in ctx.cache:
            _write_scan_csv(ctx.cache["scan"], args.csv_path)
        _write_report(suite_report(suite, ctx, results, status), args.output_path)
        if args.command == "scan":
            # the scan command is a data product: the exponent sanity check
            # is recorded in the report but only `verify scan` gates on it
            return status if status == EXIT_BUDGET else EXIT_OK
        for r in results:
            print(r.line())
        return status
    except (FormFileError, HeckeViolationError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
