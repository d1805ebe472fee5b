"""Experiment harness: `weyl-delta <subcommand> [--flag value]...`

Subcommands
-----------
verify       run a verification suite (voronoi | delta | statphase |
             pipeline | afe | scan | all) and write a JSON report
scan         growth scan over a t-range, CSV of (t, |L|) plus the report
calibrate    fit the dual-summation constant eta for a form (the built-in
             one at the 1440 coefficients the probes read) by the
             eta-calibration check of `verify voronoi`, and exit with its
             status
export-form  write the built-in discriminant form to a coefficient file
import-form  parse and validate a coefficient file

The checks are defined once, in :mod:`weyldelta.checks`; `verify <suite>`
runs that suite's entries of the list (`all`: every suite, in the order
delta, statphase, voronoi, pipeline, afe, scan) and the acceptance gate
asserts the same entries. Reports are JSON with stable key order, and
each check entry names its comparison ("<" for a strict check, else "<=");
everything under the "timing" key (each check's wall clock) is excluded from
the determinism guarantee (identical suite, seed and BLAS thread count
reproduce the rest byte for byte). Scan/probe points go to CSV with a header
row and plain decimal formatting. `verify --budget` (default: the env
variable WEYL_DELTA_BUDGET) caps the oscillatory-quadrature cell count and
the stratum-sum evaluation count. An option that the suite never reads is a
usage error: `--seed` is read by delta and statphase, `--budget` also by
pipeline (`all` reads both), and the scan suite and command read neither.
Exit codes: 0 all checks pass, 1 check failure, 2 budget exhausted, 3
input error (a usage error, an unreadable or invalid form file, a form
with fewer coefficients than a check reads, or a scan grid too sparse for
its fit); a check that raises a CalibrationError or PreconditionError
fails, its entry naming the error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .checks import CHECKS, DEFAULT_SCAN, SUITES, CheckContext, CheckResult, checks_for
from .errors import (
    BudgetExceededError,
    CoefficientRangeError,
    FormFileError,
    HeckeViolationError,
    PreconditionError,
)
from .forms import delta_form, export_form, load_form

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3

SCAN_DEFAULTS = {"csv": None, **DEFAULT_SCAN}  # scan suite only
READERS = {"seed": ("delta", "statphase", "all"), "budget": ("delta", "statphase", "pipeline", "all")}


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_INPUT on a usage error (argparse's own code, 2, means
    an exhausted budget here); subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """A count or a seed: an integer >= 0 (a usage error otherwise)."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    """A finite real number (a usage error otherwise)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
                "comparison": r.comparison,
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
    parser = _Parser(prog="weyl-delta", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # what `verify` and `scan` both take
    run.add_argument("--form", dest="form_path")
    run.add_argument("--output", dest="output_path")
    unset = argparse.SUPPRESS  # until the defaults fill them in, after they are vetted
    run.add_argument("--seed", type=_count, default=unset)
    run.add_argument("--csv", default=unset)
    run.add_argument("--t-min", type=_finite, default=unset)
    run.add_argument("--t-max", type=_finite, default=unset)
    run.add_argument("--samples", type=_count, default=unset)

    p_verify = sub.add_parser("verify", parents=[run], help="run a verification suite")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.add_argument(
        "--budget",
        type=int,
        default=unset,
        help="quadrature cell and stratum-sum evaluation cap (default: $WEYL_DELTA_BUDGET)",
    )

    sub.add_parser("scan", parents=[run], help="growth scan along the critical line")

    p_cal = sub.add_parser("calibrate", help="calibrate the dual-sum constant eta")
    p_cal.add_argument("--form", dest="form_path")
    p_cal.add_argument("--output", dest="output_path")

    p_exp = sub.add_parser("export-form", help="write the built-in form to a file")
    p_exp.add_argument("path")
    p_exp.add_argument("--n-max", type=int, default=10000)

    p_imp = sub.add_parser("import-form", help="parse and validate a coefficient file")
    p_imp.add_argument("path")

    args = parser.parse_args(argv)
    if args.command in ("verify", "scan"):
        suite = args.suite if args.command == "verify" else "scan"
        ignored = ["form"] if suite == "delta" and args.form_path else []  # reads no form
        ignored += [name for name, suites in READERS.items() if name in args and suite not in suites]
        if suite not in ("scan", "all"):
            ignored += [name for name in SCAN_DEFAULTS if name in args]
        if ignored:
            options = ", ".join("--" + name.replace("_", "-") for name in ignored)
            command = f"verify {suite}" if args.command == "verify" else "scan"
            sub.choices[args.command].error(f"{command} does not read {options}")
    budget = os.environ.get("WEYL_DELTA_BUDGET") or None
    if args.command == "verify" and "budget" not in args and budget is not None:
        # the environment's budget stands in for --budget, silently where no check reads it
        try:
            args.budget = int(budget)
        except ValueError:
            p_verify.error(f"argument --budget: invalid int value: {budget!r}")
    args = argparse.Namespace(**{**SCAN_DEFAULTS, "seed": 0, "budget": None, **vars(args)})

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
            # the eta-calibration entry alone: the form is as long as its
            # probes read, and the fit is the one `verify` runs
            (fit,) = [check for check in CHECKS if check.name == "eta-calibration"]
            ctx = CheckContext(form_path=args.form_path, checks=[fit])
            result = fit.run(ctx)
            _write_report({**result.values, **ctx.calibration}, args.output_path)
            print(result.line())
            return EXIT_OK if result.passed else EXIT_CHECK_FAILED
        # verify and scan
        ctx = CheckContext(
            seed=args.seed,
            budget=args.budget,
            form_path=args.form_path,
            scan_grid=np.linspace(args.t_min, args.t_max, args.samples),
            checks=checks_for(suite),
        )
        results, status = run_suite(suite, ctx)
        if args.csv and "scan" in ctx.cache:
            _write_scan_csv(ctx.cache["scan"], args.csv)
        _write_report(suite_report(suite, ctx, results, status), args.output_path)
        if args.command == "scan":
            # the scan command is a data product: the exponent sanity check
            # is recorded in the report but only `verify scan` gates on it
            return status if status == EXIT_BUDGET else EXIT_OK
        for r in results:
            print(r.line())
        return status
    except (
        FormFileError,
        HeckeViolationError,
        CoefficientRangeError,
        PreconditionError,
        FileNotFoundError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
