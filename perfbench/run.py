"""dunkl-lab benchmark harness.

    python3 perfbench/run.py --workload identity-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Workloads: identity-verify,
ensemble-jump, frozen-limit (see perfbench/workloads.py and README.md).

One client runs iterations back to back, each in a fresh worker process
(perfbench/worker.py), until ``--seconds`` have passed; an iteration longer
than that still runs once.  Workers get one BLAS thread, a fixed hash seed
and no DUNKL_LAB_THREADS, so the run uses one core besides this idle parent.

``--trace 0`` reports the end-to-end metrics (medians over iterations; set-up
time over at least SETUP_SAMPLES fresh processes).  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones plus the tracing overhead.  Every run checks the outputs; the
last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  A fuller record, with machine facts and
every iteration, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("identity-verify", "ensemble-jump", "frozen-limit")
SETUP_SAMPLES = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0
END_TO_END = ("setup_s", "wall_s", "work_per_s", "peak_rss_mb")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("DUNKL_LAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Spawns workers one at a time and keeps their records."""

    def __init__(self, args, scratch: Path, started: float):
        self.args = args
        self.scratch = scratch
        self.deadline = started + DEADLINE_S
        self.env = worker_env()
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        workdir = self.scratch / tag
        workdir.mkdir()
        record = workdir / "record.json"
        spans = OUT / f"spans-{self.args.workload}-seed{self.args.seed}-{tag}.tsv"
        spawned = time.monotonic()
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--mode", mode, "--spawned-at", repr(spawned),
            "--workdir", str(workdir), "--record", str(record),
        ]
        if mode == "trace":
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.deadline - spawned)
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
        )
        if proc.returncode != 0 or not record.is_file():
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
        rec = json.loads(record.read_text(encoding="utf-8"))
        rec["mode"] = mode
        rec["elapsed_s"] = time.monotonic() - spawned
        if mode == "trace":
            rec["spans_file"] = str(spans.relative_to(ROOT))
        return rec


def collect(runner: Runner, seconds: float, trace: bool) -> list:
    """Iterations until ``seconds`` have passed; at least one of each mode.
    A further iteration starts only if the last one would still fit."""
    modes = ("run", "trace") if trace else ("run",)
    records = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        records += [runner.spawn(m) for m in modes]
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    if not trace:
        while len(records) < SETUP_SAMPLES:
            records.append(runner.spawn("setup"))
    return records


def summarize(records: list, trace: bool, units: dict):
    timed = [r for r in records if r["mode"] != "setup"]
    checks = [c for r in timed for c in r["checks"]]
    # outputs are pure functions of the seed: every iteration, traced or
    # not, must produce the same bytes
    first = timed[0]["digest"]
    for r in timed[1:]:
        checks.append({"name": f"digest.{r['mode']}", "ok": r["digest"] == first, "detail": r["digest"]})
    runs = [r for r in timed if r["mode"] == "run"]
    if trace:
        traced = [r for r in timed if r["mode"] == "trace"]
        values = {k: statistics.median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - statistics.median(
            [r["wall_s"] for r in runs]
        )
    else:
        values = {k: statistics.median([r[k] for r in runs]) for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = statistics.median([r["setup_s"] for r in records])
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
    return checks, metrics


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dunkl_lab" / "__init__.py").is_file():
        print(f"error: no dunkl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # the "build": byte-compile the package once so no timed process does it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "dunkl_lab")],
        check=True, capture_output=True, timeout=120,
    )
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        records = collect(Runner(args, scratch, started), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks, metrics = summarize(records, bool(args.trace), units)
    failed = [c for c in checks if not c["ok"]]

    missing = sorted({m for r in records for m in r.get("missing_targets", [])})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            **records[0]["versions"],
        },
        "git_revision": git_revision(),
        "metrics": metrics,
        "failed_ratio": len(failed) / len(checks),
        "failed_checks": failed,
        "missing_targets": missing,
        "iterations": records,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {result['failed_ratio']:.6g} ({len(failed)} of {len(checks)} checks)")
    for c in failed:
        print(f"FAILED {c['name']}: {c['detail']}")
    if missing:
        print(f"absent trace targets (their metrics read 0): {', '.join(missing)}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
