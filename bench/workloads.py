"""One benchmark workload, run in a process of its own.

    PYTHONPATH=src python3 bench/workloads.py --workload sim-table1 --seed 1 --seconds 20 --trace 0 --out DIR

run.py starts this file and reads the JSON object it prints last. Each workload
turns the seed into a fixed list of units (one `run_replications` call, or one
`cli.main` call) and cycles over that list until --seconds have passed and
every unit has run once. Counts, accuracy figures and failure tallies come from
that first pass, so they repeat exactly for a given seed and --seconds; every
later run of a unit must reproduce the first one byte for byte.

With --trace 1 the same units run untraced, then traced with one worker
(tracing.instrument), and the per-layer metrics come from the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# The first pass over a workload's units is sized to take about this share of
# --seconds on a 2-CPU machine at the commit that defined the benchmark.
PASS_SHARE = 0.6


def derive_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Result(NamedTuple):
    tables: int  # replicates simulated, or tables estimated, by the call
    attempted: int  # estimator calls
    failed: int  # estimator calls that failed
    digest: str  # the call's deterministic output
    detail: object


class Workload:
    """A list of units (set by __init__), how to run one, and what to check.

    run(unit, workers) is the timed call; result(unit, raw) turns its return
    value into a Result; check(result) lists problems with one call's output;
    summary(results) gives deterministic figures from the first pass.
    """

    name: str
    workers: int
    units: list
    traced_units: int  # length of the unit prefix the traced run uses
    warmup: object  # one untimed call before measuring

    def check_once(self) -> list[str]:
        """Problems found by checks that run once, outside the timed region."""
        return []


class SimTable1(Workload):
    """run_replications on the Table-1 population, all three estimators, one process.

    Units cycle through the corruption rates 0, +100 and -80; each has its own
    replicate seed.
    """

    name = "sim-table1"
    RATES = (0.0, 100.0, -80.0)
    REPS = 10
    UNIT_SECONDS = 0.85
    ESTIMATORS = ("nof1", "breakaway", "chao1")

    def __init__(self, rr, seed: int, seconds: float, work_dir: Path):
        self.rr = rr
        self.workers = 1
        n = 3 * max(1, round(PASS_SHARE * seconds / self.UNIT_SECONDS / 3))
        self.units = [self.config(derive_seed(self.name, seed, i), self.RATES[i % 3]) for i in range(n)]
        self.traced_units = max(3, 3 * (n // 9))
        self.warmup = self.config(derive_seed(self.name, seed, -1), 0.0, reps=2)

    def config(self, seed: int, rate: float, reps: int | None = None):
        return self.rr.SimulationConfig(
            C=5000, size=500, prob=0.99, chimeric_rate=rate, reps=reps or self.REPS,
            seed=seed, estimators=self.ESTIMATORS, trim=0.2,
        )

    def run(self, cfg, workers: int):
        return self.rr.run_replications(cfg, workers=workers)

    def result(self, cfg, report) -> Result:
        failed = sum(s.failures for s in report.stats)
        digest = self.rr.simlab.report_to_json(report)
        return Result(cfg.reps, cfg.reps * len(cfg.estimators), failed, digest, report)

    def check(self, result: Result) -> list[str]:
        return check_report(result.detail)

    def summary(self, results: list[Result]) -> dict:
        out = {}
        for est in ("nof1", "breakaway"):
            by_rate = {}
            for r in results:
                value = r.detail.for_estimator(est).trimmed_rmse
                if math.isfinite(value):
                    by_rate.setdefault(r.detail.config.chimeric_rate, []).append(value)
            everything = [v for values in by_rate.values() for v in values]
            out[f"trimmed_rmse_{est}"] = statistics.fmean(everything) if everything else math.nan
            out[f"trimmed_rmse_{est}_by_rate"] = {
                str(rate): statistics.fmean(values) for rate, values in sorted(by_rate.items())
            }
        return out


class CalibPool(Workload):
    """SE calibration of nof1 on the criterion-5 low-diversity population, through the pool.

    Each unit is `se_calibration`'s own two steps, run_replications and
    calibration_from_report, so the report's failure count stays visible.
    """

    name = "calib-pool"
    REPS = 100
    UNIT_SECONDS = 2.8

    def __init__(self, rr, seed: int, seconds: float, work_dir: Path):
        self.rr = rr
        self.workers = min(2, nproc())
        n = max(1, round(PASS_SHARE * seconds / self.UNIT_SECONDS))
        self.units = [self.config(derive_seed(self.name, seed, i)) for i in range(n)]
        self.traced_units = 1
        self.warmup = self.config(derive_seed(self.name, seed, -1), reps=2)
        self.identity_check = self.config(derive_seed(self.name, seed, -2), reps=24)

    def config(self, seed: int, reps: int | None = None):
        return self.rr.SimulationConfig(
            C=5000, size=100, prob=0.95, reps=reps or self.REPS, seed=seed, estimators=("nof1",)
        )

    def run(self, cfg, workers: int):
        report = self.rr.simlab.run_replications(cfg, workers=workers)
        return report, self.rr.simlab.calibration_from_report(report)

    def result(self, cfg, raw) -> Result:
        report, calibration = raw
        digest = self.rr.simlab.report_to_json(report) + repr(tuple(calibration))
        return Result(cfg.reps, cfg.reps, report.stats[0].failures, digest, calibration)

    def check(self, result: Result) -> list[str]:
        cal = result.detail
        if not (math.isfinite(cal.median_se) and cal.median_se >= 0.0 and cal.mad_of_estimates > 0.0):
            return [f"calibration out of range: {cal}"]
        return []

    def check_once(self) -> list[str]:
        cfg = self.identity_check
        serial = self.result(cfg, self.run(cfg, 1)).digest
        pooled = self.result(cfg, self.run(cfg, self.workers)).digest
        if serial != pooled:
            return [f"calib-pool report differs between workers=1 and workers={self.workers}"]
        return []

    def summary(self, results: list[Result]) -> dict:
        values = [abs(r.detail.relative_error_percent) for r in results]
        return {
            "se_calib_abs_pct": statistics.fmean(values),
            "se_calib_rel_pct_by_unit": [r.detail.relative_error_percent for r in results],
        }


class EstimateCli(Workload):
    """A closed loop of one client calling `ratiorich estimate --estimator all --output json`.

    The input files are drawn from the seed once, before timing, and the loop
    cycles over them.
    """

    name = "estimate-cli"
    UNIT_SECONDS = 0.07
    # kind: (population C, size, prob, format)
    KINDS = {
        "short": (3000, 1, 0.7, "freq"),
        "table1": (5000, 500, 0.99, "freq"),
        "longtail": (20000, 10, 0.5, "freq"),
        "abundance": (3000, 40, 0.9, "abundance"),
    }

    def __init__(self, rr, seed: int, seconds: float, work_dir: Path):
        self.rr = rr
        self.workers = 1
        per_kind = max(1, round(PASS_SHARE * seconds / self.UNIT_SECONDS / len(self.KINDS)))
        self.units = [
            self.make_file(work_dir, kind, seed, i) for kind in self.KINDS for i in range(per_kind)
        ]
        self.traced_units = len(self.units)
        self.warmup = self.units[0]

    def make_file(self, work_dir: Path, kind: str, seed: int, index: int) -> dict:
        rr = self.rr
        C, size, prob, fmt = self.KINDS[kind]
        base = derive_seed(f"{self.name}/{kind}", seed, index)
        for attempt in range(1000):
            rng = rr.replicate_rng(base, attempt)
            table = rr.truncate_to_observed(rr.sample_nb_counts(C, size, prob, rng))
            if kind != "short" or self.short_enough(table):
                break
        else:
            raise RuntimeError("no short table drawn in 1000 attempts")
        path = work_dir / f"{kind}-{index}.txt"
        if fmt == "freq":
            path.write_text(rr.serialize_frequency_table(table))
        else:
            path.write_text("".join(f"{x}\n" for x in rr.expand_to_abundances(table)))
        richness = rr.observed_richness(table)
        return {
            "kind": kind,
            "path": str(path),
            "format": fmt,
            "floor": {"nof1": richness - table.get(1), "breakaway": richness, "chao1": richness},
        }

    def short_enough(self, table) -> bool:
        """4 to 6 ratio points for both fitted estimators: the upper rungs lack dof."""
        rr = self.rr
        try:
            from_two = rr.tail_cutoff(table, 2) - 1
            from_one = rr.tail_cutoff(table, 1)
        except ValueError:
            return False
        return 4 <= from_two <= 6 and 4 <= from_one <= 6

    def run(self, unit: dict, workers: int):
        argv = ["estimate", "--input", unit["path"], "--format", unit["format"],
                "--estimator", "all", "--output", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rr.cli.main(argv)
        return code, out.getvalue()

    def result(self, unit: dict, raw) -> Result:
        code, text = raw
        try:
            failed = sum(row["error"] is not None for row in json.loads(text)["results"])
        except (json.JSONDecodeError, KeyError, TypeError):
            failed = 3
        return Result(1, 3, failed, f"{code}\n{text}", (unit, code, text))

    def check(self, result: Result) -> list[str]:
        unit, code, text = result.detail
        where = f"{unit['kind']} file {Path(unit['path']).name}"
        if code != 0:
            return [f"{where}: cli exit code {code}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"{where}: output is not JSON ({exc})"]
        keys = {"tool", "version", "command", "config", "warnings", "results"}
        if set(payload) != keys or payload["command"] != "estimate":
            return [f"{where}: envelope keys {sorted(payload)}"]
        problems = []
        names = [row["estimator"] for row in payload["results"]]
        if names != ["nof1", "breakaway", "chao1"]:
            problems.append(f"{where}: estimators {names}")
        for row in payload["results"]:
            if row["error"] is not None:
                continue
            c_hat, se = row["C_hat"], row["se"]
            floor = unit["floor"][row["estimator"]]
            if not (isinstance(c_hat, float) and math.isfinite(c_hat) and c_hat >= floor):
                problems.append(f"{where}: {row['estimator']} C_hat={c_hat} below {floor}")
            if not (isinstance(se, float) and se >= 0.0):
                problems.append(f"{where}: {row['estimator']} se={se}")
        return problems

    def summary(self, results: list[Result]) -> dict:
        rungs = {}
        for r in results:
            _, _, text = r.detail
            for row in json.loads(text)["results"]:
                if row["model_p"] is not None:
                    key = f"{row['estimator']}.p{row['model_p']}q{row['model_q']}"
                    rungs[key] = rungs.get(key, 0) + 1
        return {"chosen_rungs": dict(sorted(rungs.items()))}


WORKLOADS = {w.name: w for w in (SimTable1, CalibPool, EstimateCli)}


def check_report(report) -> list[str]:
    """Aggregates of each estimator with a success are finite and nonnegative.

    A finite mean squared error means every successful C_hat was finite.
    """
    problems = []
    for s in report.stats:
        if s.failures >= report.config.reps:
            continue
        values = (s.trimmed_rmse, s.mean_sq_error, s.median_se, s.mad_of_estimates)
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            problems.append(f"{s.estimator}: aggregates {values}")
    return problems


def check_oracle(rr) -> list[str]:
    """The exact-ratio table f_j = 2^(7-j), j = 2..6, must give f1=128, f0=256, C=508 on rung (1,0)."""
    table = rr.FrequencyCountTable.from_counts({2: 64, 3: 32, 4: 16, 5: 8, 6: 4})
    est = rr.breakaway_nof1(table)
    ok = (
        abs(est.f1_hat - 128.0) <= 1e-6
        and abs(est.f0_hat - 256.0) <= 1e-6
        and abs(est.C_hat - 508.0) <= 1e-6
        and (est.model.p, est.model.q) == (1, 0)
    )
    return [] if ok else [f"exact-ratio oracle: f1={est.f1_hat} f0={est.f0_hat} C={est.C_hat}"]


class Pass(NamedTuple):
    calls: list  # (unit index, seconds, Result) for every call made
    first: list  # Result of each unit's first call, in unit order
    problems: list
    failed_calls: int


def measure(work, units: list, seconds: float, workers: int, tracer=None) -> Pass:
    """Cycle over units until `seconds` have passed and every unit has run once.

    Only the calls are timed. The first result of each unit is checked; later
    results must match it exactly. With a tracer, each call's spans carry the
    call's position in the loop, so spans of the first pass are those whose
    unit is below len(units).
    """
    calls, first, problems = [], [], []
    failed_calls = 0
    start = time.perf_counter()
    i = 0
    while i < len(units) or time.perf_counter() - start < seconds:
        u = i % len(units)
        if tracer is not None:
            tracer.unit = i
            tracer.call += 1
        t0 = time.perf_counter()
        raw = work.run(units[u], workers)
        dt = time.perf_counter() - t0
        result = work.result(units[u], raw)
        calls.append((u, dt, result))
        if i < len(units):
            first.append(result)
            found = work.check(result)
        elif result.digest != first[u].digest:
            found = [f"unit {u} gave a different result on call {i}"]
        else:
            found = []
        problems += found
        failed_calls += bool(found)
        i += 1
    return Pass(calls, first, problems, failed_calls)


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def end_to_end(measured: Pass) -> tuple[dict, dict]:
    tables = sum(r.tables for _, _, r in measured.calls)
    busy = sum(dt for _, dt, _ in measured.calls)
    latency = [1e3 * dt / r.tables for _, dt, r in measured.calls]
    attempted = sum(r.attempted for r in measured.first)
    failed = sum(r.failed for r in measured.first)
    metrics = {
        "reps_per_s": tables / busy,
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_p90": percentile(latency, 90) if len(latency) > 1 else latency[0],
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "calls": len(measured.calls),
        "units": len(measured.first),
        "tables": tables,
        "measured_s": busy,
        "latency_samples": len(latency),
        "latency_samples_beyond_p90": sum(1 for x in latency if x > metrics["latency_ms_p90"]),
        "estimator_calls": attempted,
        "estimator_failures": failed,
        "failed_share": failed / attempted,
    }
    return metrics, info


def traced(work, seconds: float, seed: int) -> tuple[dict, dict, list]:
    units = work.units[: work.traced_units]
    phases = 3 if work.workers > 1 else 2
    problems = []
    metrics: dict[str, float] = {}
    info: dict = {"traced_units": len(units)}

    if work.workers > 1:
        before = child_cpu_seconds()
        pooled = measure(work, units, seconds / phases, work.workers)
        worker_cpu = child_cpu_seconds() - before
        wall = sum(dt for _, dt, _ in pooled.calls)
        metrics["simlab.pool.worker_cpu_s"] = worker_cpu
        metrics["simlab.pool.utilization"] = worker_cpu / (work.workers * wall)
        problems += pooled.problems
    else:
        pooled = None
        metrics["simlab.pool.worker_cpu_s"] = 0.0
        metrics["simlab.pool.utilization"] = 0.0

    plain = measure(work, units, seconds / phases, 1)
    problems += plain.problems
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, work.rr):
        with_trace = measure(work, units, seconds / phases, 1, tracer)
    problems += with_trace.problems
    for reference in filter(None, (plain, pooled)):
        if [r.digest for r in reference.first] != [r.digest for r in with_trace.first]:
            problems.append("traced results differ from untraced results")

    problems += tracing.check_spans(tracer.spans)
    layers, layer_problems = tracing.layer_metrics(tracer.spans, set(range(len(units))))
    problems += layer_problems
    metrics.update(layers)

    def per_table(p: Pass) -> float:
        return sum(dt for _, dt, _ in p.calls) / sum(r.tables for _, _, r in p.calls)

    metrics["trace.overhead_ratio"] = per_table(with_trace) / per_table(plain)
    spans_path = OUT / f"spans-{work.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    info["spans"] = str(spans_path.relative_to(ROOT))
    info["span_count"] = len(tracer.spans)
    passes = [p for p in (pooled, plain, with_trace) if p is not None]
    info["calls"] = sum(len(p.calls) for p in passes)
    info["failed_calls"] = sum(p.failed_calls for p in passes)
    return metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for generated input files")
    args = parser.parse_args(argv)

    import ratiorich as rr
    import ratiorich.cli  # noqa: F401  (the CLI workload calls rr.cli.main)

    src = (ROOT / "src").resolve()
    if src not in Path(rr.__file__).resolve().parents:
        print(f"ratiorich was imported from {rr.__file__}, not from {src}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    work = WORKLOADS[args.workload](rr, args.seed, args.seconds, out_dir)
    problems = check_oracle(rr) + work.check_once()
    work.run(work.warmup, 1)

    if args.trace:
        tracing.selftest()
        metrics, info, more = traced(work, args.seconds, args.seed)
        problems += more
        calls, failed_calls = info["calls"], info["failed_calls"]
        deterministic = {
            k: v for k, v in metrics.items()
            if k.endswith(".calls") or k.endswith(".raised") or k.endswith("points_mean")
            or k.startswith(("estimators.accepted.", "estimators.outcome.", "estimators.failed."))
        }
    else:
        measured = measure(work, work.units, args.seconds, work.workers)
        problems += measured.problems
        metrics, info = end_to_end(measured)
        calls, failed_calls = len(measured.calls), measured.failed_calls
        deterministic = {
            "estimator_calls": info["estimator_calls"],
            "estimator_failures": info["estimator_failures"],
            **work.summary(measured.first),
        }
    print(json.dumps({
        "metrics": metrics,
        "deterministic": deterministic,
        "info": info,
        "problems": problems,
        "calls": calls,
        "failed_calls": failed_calls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
