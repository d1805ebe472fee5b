import json
import os
import subprocess
import sys
from pathlib import Path

import weyldelta
from weyldelta.cli import main
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


def test_exhausted_budget_exits_2(tmp_path):
    # a subprocess: main() sets the cell budget for the rest of its process
    proc = run_cli_process(
        ["verify", "delta", "--output", str(tmp_path / "r.json")], WEYL_DELTA_BUDGET="3"
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["budget_exhausted"] is True


def test_verify_report_deterministic(tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert run_cli(["verify", "delta", "--output", str(p1), "--seed", "7"]) == 0
    assert run_cli(["verify", "delta", "--output", str(p2), "--seed", "7"]) == 0
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


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
