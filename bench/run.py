"""The ratiorich benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload sim-table1 --seed 1 --seconds 20 --trace 0

Workloads: sim-table1, calib-pool, estimate-cli (see bench/README.md).
Run from the root of a checkout; the package is imported from its src/.

The workload runs in a child process (bench/workloads.py). Then three fresh
interpreters each import ratiorich and ratiorich.cli, and the median import
time is the set-up time. This script itself imports neither numpy nor scipy.
With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines before it give
the environment, the deterministic results and every check that failed, and
bench/out/ keeps a copy of the whole result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150
IMPORT = "import ratiorich, ratiorich.cli"
SETUP_CODE = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(trace: bool) -> list[dict]:
    """Import ratiorich and ratiorich.cli in fresh interpreters.

    With trace, -X importtime splits each import into numpy, scipy and the rest.
    """
    runs = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", SETUP_CODE]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=20, check=True
        )
        run = {"total": float(proc.stdout.split()[-1])}
        if trace:
            run.update(split_importtime(proc.stderr))
        runs.append(run)
    return runs


def split_importtime(stderr: str) -> dict:
    """Sum -X importtime self times by top-level package: numpy, scipy, everything else."""
    by_package = {"numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue
        top = name.strip().split(".")[0]
        if top in by_package:
            by_package[top] += int(self_us) / 1e6
    return by_package


def environment(args) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {name: os.environ.get(name, "unset") for name in blas},
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "git_commit": commit,
        "trace": bool(args.trace),
    }


def source_hash() -> str:
    """Hash of the package and benchmark sources: same-seed runs compare only when it matches."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def determinism_check(key: str, deterministic: dict) -> list[str]:
    """Compare the deterministic results with the last run of the same key, if any."""
    record = OUT / "deterministic.json"
    seen = json.loads(record.read_text()) if record.exists() else {}
    problems = []
    previous = seen.get(key)
    if previous is not None and previous != deterministic:
        changed = sorted(k for k in set(previous) | set(deterministic)
                         if previous.get(k) != deterministic.get(k))
        problems.append(f"deterministic results differ from the previous same-seed run: {changed}")
    seen[key] = deterministic
    record.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return problems


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-table1", "calib-pool", "estimate-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ratiorich" / "__init__.py").is_file():
        print(f"error: no ratiorich package under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as work_dir:
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", work_dir]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.splitlines()[-1])
    setup = setup_times(bool(args.trace))

    metrics = dict(child["metrics"])
    if args.trace:
        numpy_s = statistics.median(r["numpy"] for r in setup)
        scipy_s = statistics.median(r["scipy"] for r in setup)
        metrics["setup.import_numpy_s"] = numpy_s
        metrics["setup.import_scipy_stats_s"] = scipy_s
        metrics["setup.import_ratiorich_s"] = statistics.median(
            r["total"] - r["numpy"] - r["scipy"] for r in setup
        )
    else:
        metrics["setup_s"] = statistics.median(r["total"] for r in setup)

    problems = list(child["problems"])
    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))},"
            f" undeclared {sorted(set(metrics) - set(units))}"
        )
    key = f"{args.workload}/seed{args.seed}/seconds{args.seconds:g}/trace{args.trace}/{source_hash()}"
    problems += determinism_check(key, child["deterministic"])

    env = environment(args)
    result = {
        "correct": not problems,
        "attempted": child["calls"],
        "failed": child["failed_calls"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = {"environment": env, "deterministic": child["deterministic"],
              "info": child["info"], "setup_runs": setup, "problems": problems, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(env))
    print("deterministic: " + json.dumps(child["deterministic"]))
    print("info: " + json.dumps(child["info"]))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
