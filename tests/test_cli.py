import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weyldelta
from weyldelta import checks, cli
from weyldelta.checks import CHECKS, SUITES, CheckContext, checks_for
from weyldelta.cli import main, run_suite
from weyldelta.errors import CalibrationError, PreconditionError
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


def test_a_bad_form_file_names_its_line(tmp_path, capsys):
    path = tmp_path / "delta.coef"
    export_form(delta_form(20), str(path))
    lines = path.read_text().splitlines()
    line_no = lines.index(next(line for line in lines if line.startswith("8 "))) + 1
    lines[line_no - 1] = "8 notanumber"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["import-form", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"input error: line {line_no}: bad coefficient line '8 notanumber'" in err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, line, bad",
    [
        ("delta24.coef", "#kind holomorphic", "#kind modular"),
        ("delta24.coef", "#M 1", "#M one"),
        ("delta24.coef", "#M 1", "#M 0"),
        ("delta24.coef", "#k 12", "#k 11"),
        ("maass_exceptional.coef", "#ell 0.2j", "#ell 0.3j"),
        ("maass_exceptional.coef", "#ell 0.2j", "#ell nan"),
        ("maass_exceptional.coef", "#delta 0", "#delta 2"),
        ("maass_exceptional.coef", "#eps_g -1.0", "#eps_g 0.5"),
        ("delta24.coef", "#chi 1.0", "#chi one"),
        ("delta24.coef", "#eps_f 1.0", "#eps_f plus"),
        ("delta24.coef", "#eps_f 1.0", "#eps_f nan"),
        ("delta24.coef", "#n_max 24", "#n_max 24.0"),
        ("delta24.coef", "#n_max 24", "#n_max 25"),
        ("delta24.coef", "#tol 1e-09", "#tol tight"),
        ("delta24.coef", "#tol 1e-09", "#tol nan"),
        ("delta24.coef", "#eps_f 1.0", "#epsf 1.0"),  # unknown key
        ("delta24.coef", "#k 12", "#k 12\n#k 10"),  # repeated key
        ("delta24.coef", "#k 12", "#k 12\n#eps_g 1"),  # a Maass key
        ("maass_exceptional.coef", "#delta 0", "#delta 0\n#k 12"),  # a holomorphic key
        ("delta24.coef", "#eps_f 1.0", "#eps_f 1.0\n#eta -1.0"),  # measured, never stored
    ],
)
def test_a_bad_header_line_exits_3_naming_it(tmp_path, capsys, name, line, bad):
    text = (DATA / name).read_text()
    assert line in text.splitlines()
    text = text.replace(line, bad, 1)
    line_no = text.splitlines().index(bad.splitlines()[-1]) + 1
    path = tmp_path / name
    path.write_text(text)
    assert run_cli(["import-form", str(path)]) == 3
    assert f"input error: line {line_no}: " in capsys.readouterr().err


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
    assert run_cli(["verify", "voronoi", "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [c["name"] for c in report["checks"]] == registry_names("voronoi")
    assert report["all_passed"] is True
    # the form holds every coefficient the fit and the cells read, so no dual
    # sum is cut; each cell reports the size of its last included decade
    assert not any(c["values"]["n_cut_capped"] for c in report["checks"])
    cells = [c for c in report["checks"] if c["name"].startswith("voronoi-")]
    assert all(0 < c["values"]["tail_estimate"] < 1e-6 for c in cells)


def test_verify_pipeline_suite(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli(["verify", "pipeline", "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [c["name"] for c in report["checks"]] == registry_names("pipeline")
    assert len(report["checks"]) == 3
    assert report["all_passed"] is True
    identity = next(c for c in report["checks"] if c["name"] == "dual-summation-identity")
    assert identity["residual"] < 1e-3
    stability = next(c for c in report["checks"] if c["name"] == "dual-summation-stability")
    assert stability["values"] == {"doubled_n_cut": 60000, "n_cut_capped": False}


def test_verify_pipeline_reports_a_capped_n_cut_doubling(tmp_path):
    # the dual sum reads n_cut = 30000; a 40000-coefficient export stops the
    # doubling at 40000, and the stability check says so and fails
    form_path, report_path = tmp_path / "delta.coef", tmp_path / "report.json"
    assert run_cli(["export-form", str(form_path), "--n-max", "40000"]) == 0
    args = ["verify", "pipeline", "--form", str(form_path), "--output", str(report_path)]
    assert run_cli(args) == 1
    report = json.loads(report_path.read_text())
    stability = next(c for c in report["checks"] if c["name"] == "dual-summation-stability")
    assert stability["values"] == {"doubled_n_cut": 40000, "n_cut_capped": True}
    assert stability["passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["dual-summation-stability"]


@pytest.mark.parametrize("error", [CalibrationError, PreconditionError])
def test_an_error_inside_a_check_is_a_reported_failure(error, tmp_path, capsys, monkeypatch):
    def raising(*args, **kwargs):
        raise error("probe went astray")

    monkeypatch.setattr(checks, "trivial_delta_alpha_sum", raising)
    report_path = tmp_path / "report.json"
    assert run_cli(["verify", "delta", "--output", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert [c["name"] for c in report["checks"]] == registry_names("delta")
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["trivial-delta-character-sum"]
    assert failed[0]["values"] == {"error": error.__name__, "message": "probe went astray"}
    assert failed[0]["residual"] is failed[0]["tolerance"] is None
    out = capsys.readouterr().out
    assert f"[FAIL] trivial-delta-character-sum: {error.__name__}: probe went astray" in out


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


def test_a_wrong_root_number_fails_the_off_center_two_weight_entry(tmp_path):
    # at t = 0 the two weights agree whatever eps is; at t = 1 only the right one passes
    (entry,) = [check for check in CHECKS if check.name == "afe-two-weight-off-center"]
    assert (entry.suite, entry.criterion, entry.coefficients) == ("afe", 8, 6001)
    path = tmp_path / "delta.coef"
    export_form(delta_form(6001), str(path))
    text = path.read_text()
    for eps, passed in (("1.0", True), ("-1.0", False), ("1j", False)):
        variant = tmp_path / f"eps{eps}.coef"
        variant.write_text(text.replace("#eps_f 1.0\n", f"#eps_f {eps}\n"))
        ctx = CheckContext(form_path=str(variant), checks=[entry])
        result = entry.run(ctx)
        assert ctx.form().epsilon_f == complex(eps)
        assert result.residual is not None and result.passed is passed
        assert result.line().startswith("[PASS]" if passed else "[FAIL]")


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


def test_verify_scan_sizes_the_form_by_its_grid(tmp_path):
    # past t ~ 640 the scan reads more than 30000 coefficients
    grid = ["--t-min", "600", "--t-max", "700"]
    ctx = CheckContext(scan_grid=np.linspace(600.0, 700.0, 8), checks=checks_for("scan"))
    assert ctx.n_max > 30000
    assert CheckContext(checks=checks_for("scan")).n_max <= 30000  # the default grid
    report_path, csv_path = tmp_path / "scan.json", tmp_path / "scan.csv"
    status = run_cli(
        ["verify", "scan", *grid, "--samples", "8", "--output", str(report_path), "--csv", str(csv_path)]
    )
    assert status in (0, 1)  # the exponent of so short a range is noise; it must not crash
    assert json.loads(report_path.read_text())["checks"][0]["values"]["samples"] == 8
    n_used = [int(line.split(",")[2]) for line in csv_path.read_text().splitlines()[1:]]
    assert max(n_used) == ctx.n_max > 30000
    # two samples fill the first and the last window, so the fit runs
    assert run_cli(["verify", "scan", *grid, "--samples", "2"]) in (0, 1)
    # one sample spans no interval to fit over: an input error, not a traceback
    assert run_cli(["verify", "scan", *grid, "--samples", "1"]) == 3


def test_verify_scan_defaults_to_the_context_grid(monkeypatch):
    # one default grid: the acceptance gate's CheckContext and `verify scan` read it
    seen = {}

    def capture(suite, ctx):
        seen["grid"] = ctx.scan_grid
        return [], cli.EXIT_OK

    monkeypatch.setattr(cli, "run_suite", capture)
    assert run_cli(["verify", "scan"]) == 0
    assert np.array_equal(seen["grid"], CheckContext().scan_grid)


def test_the_report_names_each_check_comparison(tmp_path):
    report_path = tmp_path / "statphase.json"
    assert run_cli(["verify", "statphase", "--output", str(report_path)]) == 0
    checks = json.loads(report_path.read_text())["checks"]
    comparison = {check["name"]: check["comparison"] for check in checks}
    assert comparison["gamma-factor-growth-bound"] == "<"
    assert comparison["stirling-profile-identity"] == "<="


def test_form_shorter_than_a_check_reads_is_an_input_error(tmp_path, capsys):
    form_path = tmp_path / "short.coef"
    assert run_cli(["export-form", str(form_path), "--n-max", "100"]) == 0
    assert run_cli(["verify", "afe", "--form", str(form_path)]) == 3
    assert "input error" in capsys.readouterr().err


def test_calibrate_subcommand(tmp_path):
    out = tmp_path / "eta.json"
    assert run_cli(["calibrate", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    eta = complex(payload["eta"][0], payload["eta"][1])
    assert abs(abs(eta) - 1.0) < 1e-12
    assert abs(payload["eta_modulus_raw"] - 1.0) < 1e-6


def test_calibrate_fails_on_a_form_too_short_for_its_probes(tmp_path, capsys):
    # the (a, c, N) = (1, 3, 50) probe's dual sum wants 1440 terms: cut at 500,
    # the fit misses modulus one by ten times the tolerance
    form_path, out = tmp_path / "short.coef", tmp_path / "eta.json"
    assert run_cli(["export-form", str(form_path), "--n-max", "500"]) == 0
    assert run_cli(["calibrate", "--form", str(form_path), "--output", str(out)]) == 1
    assert "[FAIL] eta-calibration" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["n_cut_capped"] is True
    assert abs(payload["eta_modulus_raw"] - 1.0) > 1e-6


def test_calibrate_is_the_verify_voronoi_fit(tmp_path, monkeypatch):
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
    out = tmp_path / "eta.json"
    assert run_cli(["calibrate", "--output", str(out)]) == 0
    # one form, as long as the two probes read, and one fit
    assert built == [1440] and len(fits) == 1
    payload = json.loads(out.read_text())
    monkeypatch.undo()
    report_path = tmp_path / "voronoi.json"
    assert run_cli(["verify", "voronoi", "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    fit = next(c for c in report["checks"] if c["name"] == "eta-calibration")["values"]
    assert payload["eta"] == report["calibration"]["eta"] == fit["eta"]
    assert payload["eta_modulus_raw"] == report["calibration"]["eta_modulus_raw"]
    assert payload["probe_spread"] == fit["probe_spread"]
    assert payload["n_cut_capped"] is fit["n_cut_capped"] is False


def test_console_entry_point_help():
    proc = run_cli_process(["--help"])
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_empty_scan_grid_is_an_input_error(capsys):
    assert run_cli(["verify", "scan", "--samples", "0"]) == 3
    assert run_cli(["scan", "--samples", "0"]) == 3
    assert run_cli(["verify", "all", "--samples", "0"]) == 3
    assert "input error" in capsys.readouterr().err


def test_negative_sample_count_is_a_usage_error(capsys):
    for args in (["verify", "scan"], ["scan"], ["verify", "all"]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--samples", "-1"])
        assert exc.value.code == 3
        assert "expected an integer >= 0" in capsys.readouterr().err


def test_usage_error_exits_3(capsys, monkeypatch):
    # argparse's own exit code 2 is the documented "budget exhausted"
    for args in (
        ["verify", "bogus"],
        ["verify", "delta", "--samples", "x"],
        ["verify", "delta", "--seed", "-1"],
        ["verify", "scan", "--t-min", "nan"],
        ["verify", "scan", "--t-max", "inf"],
        ["scan", "--t-max", "inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 3
    # the environment's budget is parsed as `--budget` is
    monkeypatch.setenv("WEYL_DELTA_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "delta"])
    assert exc.value.code == 3
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    monkeypatch.delenv("WEYL_DELTA_BUDGET")
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_verify_refuses_options_its_suite_does_not_read(tmp_path, capsys):
    # `delta` reads no form; only `scan` and `all` read the scan options
    csv_path = tmp_path / "x.csv"
    args = ["verify", "delta", "--form", "/nonexistent.coef", "--csv", str(csv_path), "--t-min", "3"]
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--samples", "1"])
    assert exc.value.code == 3
    assert "does not read --form, --csv, --t-min, --samples" in capsys.readouterr().err
    assert not csv_path.exists()
    scan_options = (("--csv", str(csv_path)), ("--t-min", "3"), ("--t-max", "40"), ("--samples", "1"))
    for suite in ("delta", "statphase", "voronoi", "pipeline", "afe"):
        for option, value in scan_options:
            with pytest.raises(SystemExit) as exc:
                run_cli(["verify", suite, option, value])
            assert exc.value.code == 3
            assert f"verify {suite} does not read {option}\n" in capsys.readouterr().err


def test_seed_and_budget_are_refused_where_no_check_reads_them(capsys):
    # --seed draws in delta and statphase only, --budget caps those and pipeline
    refused = [
        *((["verify", s, "--seed", "1"], "--seed") for s in ("voronoi", "pipeline", "afe", "scan")),
        *((["verify", s, "--budget", "1"], "--budget") for s in ("voronoi", "afe", "scan")),
        (["verify", "voronoi", "--seed", "7", "--budget", "1"], "--seed, --budget"),
        (["scan", "--seed", "1"], "--seed"),
    ]
    for args, options in refused:
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 3
        command = "scan" if args[0] == "scan" else " ".join(args[:2])
        assert f"{command} does not read {options}\n" in capsys.readouterr().err
    # the scan command takes no --budget at all
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--budget", "1"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --budget 1" in capsys.readouterr().err


def test_environment_budget_is_silent_where_no_check_reads_it(monkeypatch, tmp_path):
    monkeypatch.setenv("WEYL_DELTA_BUDGET", "3")
    assert run_cli(["verify", "afe", "--output", str(tmp_path / "afe.json")]) == 0


def test_verify_all_suite(tmp_path):
    report_path = tmp_path / "all.json"
    args = ["verify", "all", "--t-min", "10", "--t-max", "40", "--samples", "8"]
    assert run_cli([*args, "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [c["name"] for c in report["checks"]] == registry_names("all")
    assert report["all_passed"] is True
