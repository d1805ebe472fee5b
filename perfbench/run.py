#!/usr/bin/env python3
"""weyl-delta benchmark: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload voronoi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from src/. Every
measurement is a fresh interpreter (worker.py), so caches start empty as
they do for each `weyl-delta` invocation.

--trace 0: verify passes (set-up, then every check) repeat until --seconds
of verify wall time is measured; set-up-only passes are added until there
are at least three set-up samples and they add up to 2 s (at most 15).
Reports the end-to-end metrics of BENCHMARK.json: medians of setup_s and
verify_s, check_pass_share, min_margin_dec and peak_rss_mb. setup_s and
verify_s are times at the reference speed of worker.SpeedProbe; the plain
wall clock goes to the summary and the result file.

--trace 1: one untraced and one traced verify pass. Reports the per-layer
metrics of BENCHMARK.json from the traced pass; the tracing overhead (traced
minus untraced verify_s) goes to the summary and the result file only.

The last line of stdout is one JSON object: correct, attempted and failed
(checks over all passes) and metrics. A full record with provenance goes to
perfbench/results/<run id>.json, and the spans of a traced pass next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_SETUP_SAMPLES = 3
MIN_SETUP_TOTAL_S = 2.0  # cheap set-ups (an import) take more samples, up to MAX_SETUP_SAMPLES
MAX_SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def src_digest():
    """sha256 over src/ (path and bytes of each file): the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(workload, seed, mode, deadline, run_id="", spans=None):
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"no time left for a {mode} pass of {workload}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--run-id", run_id]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} pass of {workload} did not end within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def margin_decades(check):
    return math.log10(check["tol"] / max(check["value"], 1e-300))


def summarize_checks(passes):
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c["passed"] for c in checks)
    margins = [margin_decades(c) for c in checks if c["kind"] == "residual" and c["value"] is not None]
    return checks, failed, (min(margins) if margins else float("nan"))


def measure(workload, seed, seconds, trace, run_id, deadline):
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        untraced = run_worker(workload, seed, "verify", deadline)
        spans = RESULTS / f"{run_id}.spans.json.gz"
        traced = run_worker(workload, seed, "traced", deadline, run_id, spans)
        passes = [untraced, traced]
        metrics = traced["layers"]
        # wall clock on both sides: the traced pass runs without the speed probe
        record["trace_overhead_s"] = traced["verify_wall_s"] - untraced["verify_wall_s"]
        record["traced_verify_s"] = traced["verify_wall_s"]
        record["untraced_verify_s"] = untraced["verify_wall_s"]
        record["self_s"] = dict(sorted(traced["self_s"].items(), key=lambda kv: -kv[1]))
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        passes = []
        while not passes or sum(p["verify_wall_s"] for p in passes) < seconds:
            passes.append(run_worker(workload, seed, "verify", deadline))
        setup_passes = list(passes)
        while len(setup_passes) < MIN_SETUP_SAMPLES or (
            sum(p["setup_wall_s"] for p in setup_passes) < MIN_SETUP_TOTAL_S
            and len(setup_passes) < MAX_SETUP_SAMPLES
        ):
            setup_passes.append(run_worker(workload, seed, "setup", deadline))
        setups = [p["setup_s"] for p in setup_passes]
        verify = [p["verify_s"] for p in passes]
        record["setup_samples_s"] = setups
        record["verify_samples_s"] = verify
        record["setup_wall_samples_s"] = [p["setup_wall_s"] for p in setup_passes]
        record["verify_wall_samples_s"] = [p["verify_wall_s"] for p in passes]
        record["probe_median_s"] = [p["probe_median_s"] for p in setup_passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "verify_s": statistics.median(verify),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
    checks, failed, margin = summarize_checks(passes)
    if not trace:
        metrics.update(min_margin_dec=margin, check_pass_share=(len(checks) - failed) / len(checks))
    record.update(
        attempted=len(checks),
        failed=failed,
        check_fail_share=failed / len(checks),
        min_margin_dec=margin,
        checks=checks,
        notes=passes[-1]["notes"],
        seed_perturbs=passes[-1]["seed_perturbs"],
        numpy=passes[-1]["numpy"],
        openblas_threads=passes[-1]["openblas_threads"],
    )
    return metrics, record


def run_one(workload, seed, seconds, trace, units, deadline):
    started = time.time()
    load_1m = os.getloadavg()[0]
    run_id = f"{workload}-s{seed}-t{trace}-{time.strftime('%Y%m%dT%H%M%S', time.gmtime(started))}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    metrics, record = measure(workload, seed, seconds, trace, run_id, deadline)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"{workload} did not produce {missing}")
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record["provenance"] = {
        "run_id": run_id,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": record.pop("numpy"),
        "openblas_threads": record.pop("openblas_threads"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "loadavg_1m_at_start": load_1m,
        "platform": platform.platform(),
    }
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_summary(record):
    w = record["workload"]
    fail = f"check_fail_share {record['failed']}/{record['attempted']} = {record['check_fail_share']:.3g} ratio"
    if record["trace"]:
        print(f"{w}: traced verify wall {record['traced_verify_s']:.3f} s, untraced {record['untraced_verify_s']:.3f} s,"
              f" tracing overhead {record['trace_overhead_s']:.3f} s; {fail}")
        top = list(record["self_s"].items())[:5]
        print(f"{w}: largest self times: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
    else:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        wall_setup = statistics.median(record["setup_wall_samples_s"])
        wall_verify = statistics.median(record["verify_wall_samples_s"])
        n_setup, n_verify = len(record["setup_samples_s"]), len(record["verify_samples_s"])
        print(f"{w}: setup_s {m['setup_s']:.3f} s (median of {n_setup}; wall {wall_setup:.3f} s) | "
              f"verify_s {m['verify_s']:.3f} s (median of {n_verify}; wall {wall_verify:.3f} s) | {fail} | "
              f"min_margin_dec {m['min_margin_dec']:.3f} decades | peak_rss_mb {m['peak_rss_mb']:.1f} MiB")
    for c in record["checks"]:
        if not c["passed"]:
            print(f"{w}: FAILED {c['name']}: value {c['value']} vs tol {c['tol']} ({c['kind']})"
                  + (f"\n{c['error']}" if "error" in c else ""))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "weyldelta" / "__init__.py").is_file():
        print(f"error: no weyldelta sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            records.append(run_one(name, args.seed, args.seconds, args.trace, units, deadline))
            print_summary(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
