import json
import os
import subprocess
import sys
from pathlib import Path

import weyldelta
from weyldelta import checks
from weyldelta.checks import CHECKS, SUITES, CheckContext, checks_for
from weyldelta.cli import main, run_suite
from weyldelta.forms import delta_form, export_form


def run_cli(args):
    return main(list(args))


def run_cli_process(args, **env):
    """`python -m weyldelta.cli` in a fresh interpreter that imports this checkout."""
    src = str(Path(weyldelta.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "weyldelta.cli", *args], capture_output=True, text=True, env=env
    )


def test_export_import_roundtrip(tmp_path, capsys):
    path = tmp_path / "delta.coef"
    assert run_cli(["export-form", str(path), "--n-max", "200"]) == 0
    assert run_cli(["import-form", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holomorphic" in out
    assert "200 coefficients" in out


def test_import_missing_file_returns_input_error(tmp_path):
    status = run_cli(["import-form", str(tmp_path / "nope.coef")])
    assert status == 3


def test_import_tampered_chi_rejected(tmp_path):
    path = tmp_path / "delta.coef"
    export_form(delta_form(50), str(path))
    path.write_text(path.read_text().replace("#chi 1.0", "#chi 1.0,1.0"))
    assert run_cli(["import-form", str(path)]) == 3


def test_verify_delta_suite(tmp_path):
    report_path = tmp_path / "report.json"
    status = run_cli(["verify", "delta", "--output", str(report_path), "--seed", "1"])
    assert status == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "averaged-delta-exactness" in names
    for check in report["checks"]:
        assert check["anchor"]
        assert "residual" in check and "tolerance" in check


def test_verify_afe_suite(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli(["verify", "afe", "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    for name in (
        "afe-two-weight-agreement",
        "afe-conjugate-symmetry",
        "afe-truncation-stability",
        "hecke-multiplicativity",
    ):
        assert name in names


def registry_names(suite):
    return [check.name for check in checks_for(suite)]


def test_verify_voronoi_suite(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli(["verify", "voronoi", "--output", str(report_path), "--seed", "1"]) == 0
    report = json.loads(report_path.read_text())
    assert [c["name"] for c in report["checks"]] == registry_names("voronoi")
    assert report["all_passed"] is True
    # the form holds every coefficient the cells read, so no dual sum is cut
    cells = [c for c in report["checks"] if c["name"].startswith("voronoi-")]
    assert not any(c["values"]["n_cut_capped"] for c in cells)


def test_verify_afe_on_exported_form(tmp_path, capsys):
    form_path = tmp_path / "delta.coef"
    n_max = max(check.coefficients for check in checks_for("afe"))
    assert run_cli(["export-form", str(form_path), "--n-max", str(n_max)]) == 0
    report_path = tmp_path / "report.json"
    status = run_cli(["verify", "afe", "--form", str(form_path), "--output", str(report_path)])
    assert status == 0, capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert [c["name"] for c in report["checks"]] == registry_names("afe")
    assert report["all_passed"] is True


def test_one_form_and_one_eta_fit_per_context(monkeypatch):
    built, fits = [], []
    real_fit = checks.calibrate_eta

    def counting_delta_form(n_max):
        built.append(n_max)
        return delta_form(n_max)

    def counting_fit(*args, **kwargs):
        fits.append(args[0])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(checks, "delta_form", counting_delta_form)
    monkeypatch.setattr(checks, "calibrate_eta", counting_fit)
    selected = checks_for("voronoi") + checks_for("delta")
    ctx = CheckContext(seed=1, checks=selected)
    for suite in ("voronoi", "delta"):
        results, status = run_suite(suite, ctx)
        assert status == 0, [r.line() for r in results if not r.passed]
    assert built == [max(check.coefficients for check in selected)] == [40000]
    assert len(fits) == 1
    # `verify all` and the gate size their one form by the pipeline sweep
    assert CheckContext(checks=checks_for("all")).n_max == CheckContext().n_max == 60000


def test_exhausted_budget_exits_2(tmp_path):
    # delta exhausts it in the window Fourier integrals, statphase in W_dagger
    for suite in ("delta", "statphase"):
        report_path = tmp_path / f"{suite}.json"
        proc = run_cli_process(
            ["verify", suite, "--output", str(report_path)], WEYL_DELTA_BUDGET="3"
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert json.loads(report_path.read_text())["budget_exhausted"] is True


def test_budget_does_not_outlive_main(monkeypatch, tmp_path):
    monkeypatch.setenv("WEYL_DELTA_BUDGET", "3")
    assert run_cli(["verify", "delta", "--output", str(tmp_path / "r1.json")]) == 2
    monkeypatch.delenv("WEYL_DELTA_BUDGET")
    assert run_cli(["verify", "delta", "--output", str(tmp_path / "r2.json")]) == 0
    # --budget 0 is a budget, as WEYL_DELTA_BUDGET=0 is
    assert run_cli(["verify", "delta", "--budget", "0", "--output", str(tmp_path / "r3.json")]) == 2


def test_registry_entries_and_suites():
    names = [check.name for check in CHECKS]
    assert len(names) == len(set(names))
    assert all(check.anchor for check in CHECKS)
    documented = ("delta", "statphase", "voronoi", "pipeline", "afe", "scan")  # `verify all` order
    assert SUITES == documented
    for suite in documented:
        assert checks_for(suite)
    assert checks_for("all") == [check for suite in documented for check in checks_for(suite)]


def test_verify_report_deterministic(tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert run_cli(["verify", "delta", "--output", str(p1), "--seed", "7"]) == 0
    assert run_cli(["verify", "delta", "--output", str(p2), "--seed", "7"]) == 0
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    timing = r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # the runner times every check itself
    assert sorted(timing) == sorted(check["name"] for check in r1["checks"])
    assert all(runtime > 0 for runtime in timing.values())


def test_scan_writes_csv_and_report(tmp_path):
    report_path = tmp_path / "scan.json"
    csv_path = tmp_path / "scan.csv"
    status = run_cli(
        [
            "scan",
            "--t-min", "10", "--t-max", "40", "--samples", "8",
            "--output", str(report_path), "--csv", str(csv_path),
        ]
    )
    assert status == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,l_abs,n_used,tail_estimate,flagged"
    assert len(lines) == 9  # header + 8 samples
    report = json.loads(report_path.read_text())
    assert report["checks"][0]["values"]["samples"] == 8
    assert "disclaimer" in report["checks"][0]["values"]


def test_calibrate_subcommand(tmp_path):
    out = tmp_path / "eta.json"
    assert run_cli(["calibrate", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    eta = complex(payload["eta"][0], payload["eta"][1])
    assert abs(abs(eta) - 1.0) < 1e-12
    assert abs(payload["eta_modulus_raw"] - 1.0) < 1e-6


def test_console_entry_point_help():
    proc = run_cli_process(["--help"])
    assert proc.returncode == 0
    assert "verify" in proc.stdout
