"""Spans around ratiorich's public callables, for the traced benchmark run.

The traced run swaps module attributes of the package for wrappers that record
one span per call: name, start, end, parent span, the benchmark unit and the
replicate or CLI call it belongs to, plus a few attributes read off the call's
result (the rung a fit tried, the trace `select_model` returns, the exception
an estimator raised). Spans stay in memory until the run writes them out.
Nothing under src/ is changed; every patched attribute is restored on exit.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

RUNGS = ((1, 0), (2, 1), (3, 2), (4, 3))
OUTCOMES = (
    "accepted",
    "superseded",
    "not-selected",
    "insufficient-dof",
    "no-convergence",
    "denominator-violation",
    "negative-f0",
    "negative-f1",
)
FAILURES = ("no-admissible-model", "insufficient-data", "degenerate-sample", "other-value-error")


def rung_name(p: int, q: int) -> str:
    return f"p{p}q{q}"


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "unit", "call", "attrs")

    def __init__(self, index, name, start, parent, unit, call):
        self.index = index
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.unit = unit
        self.call = call
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "unit": self.unit,
            "call": self.call,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder. `unit` and `call` tag every span opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.unit = None
        self.call = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.unit, self.call)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(s)
                if on_error is not None:
                    on_error(s, exc, args)
                raise
            tracer.close(s)
            if on_result is not None:
                on_result(s, result, args)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def _set_attrs(span: Span, **attrs) -> None:
    span.attrs = {**(span.attrs or {}), **attrs}


@contextmanager
def instrument(tracer: Tracer, rr):
    """Patch ratiorich's module attributes with traced wrappers for the duration."""
    from ratiorich import cli, estimators, freqtab, ratiofit, simlab

    def fit_args(args):
        _, p, q = args[:3]
        return rung_name(p, q)

    def on_fit(span, fit, args):
        _set_attrs(span, rung=fit_args(args), iterations=int(fit.iterations),
                   converged=bool(fit.converged))

    def on_fit_error(span, exc, args):
        _set_attrs(span, rung=fit_args(args), raised=type(exc).__name__)

    def on_series(span, series, args):
        _set_attrs(span, points=len(series))

    def on_select(span, result, args):
        _set_attrs(span, tried=[list(t) for t in result[1].tried])

    def on_select_error(span, exc, args):
        trace = getattr(exc, "trace", None)
        if trace is not None:
            _set_attrs(span, tried=[list(t) for t in trace.tried])

    def on_estimate(span, est, args):
        table = args[0]
        richness = rr.observed_richness(table)
        floor = richness - table.get(1) if est.estimator == "nof1" else richness
        _set_attrs(span, ok=True, C_hat=est.C_hat, se=est.se, floor=floor)

    def on_estimate_error(span, exc, args):
        if isinstance(exc, rr.NoAdmissibleModelError):
            reason = "no-admissible-model"
        elif isinstance(exc, rr.InsufficientDataError):
            reason = "insufficient-data"
        elif isinstance(exc, ValueError):
            reason = "other-value-error"
        else:
            reason = type(exc).__name__
        _set_attrs(span, ok=False, failure=reason)

    def on_sample_error(span, exc, args):
        if isinstance(exc, rr.DegenerateSampleError):
            _set_attrs(span, failure="degenerate-sample")

    def new_replicate(fn):
        @functools.wraps(fn)
        def start(*args, **kwargs):
            tracer.call += 1
            return fn(*args, **kwargs)

        return start

    patches = [
        (ratiofit, "fit_wnls", "ratiofit.fit", on_fit, on_fit_error),
        (ratiofit, "tail_cutoff", "freqtab.tail_cutoff", None, None),
        (estimators, "build_ratio_series", "ratiofit.series", on_series, None),
        (estimators, "select_model", "estimators.select", on_select, on_select_error),
        (estimators, "derived_quantities", "ratiofit.derived", None, None),
        (estimators, "nof1_standard_error", "estimators.se", None, None),
        (simlab, "sample_nb_counts", "simlab.sample", None, None),
        (simlab, "truncate_to_observed", "simlab.truncate", None, on_sample_error),
        (simlab, "apply_chimeric_inflation", "simlab.inflate", None, on_sample_error),
        (cli, "main", "cli.main", None, None),
        (cli, "parse_frequency_table", "freqtab.parse", None, None),
        (cli, "parse_abundance_vector", "freqtab.parse", None, None),
        (cli, "from_abundances", "freqtab.parse", None, None),
        (freqtab.FrequencyCountTable, "get", "freqtab.get", None, None),
    ]
    saved = []
    try:
        for owner, attr, name, on_result, on_error in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            wrapped = tracer.wrap(name, original, on_result, on_error)
            if attr == "sample_nb_counts":
                wrapped = new_replicate(wrapped)
            setattr(owner, attr, wrapped)
        registry = estimators.ESTIMATORS
        originals = dict(registry)
        for key, fn in originals.items():
            registry[key] = tracer.wrap(f"estimators.{key}", fn, on_estimate, on_estimate_error)
        try:
            yield tracer
        finally:
            registry.update(originals)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def check_spans(spans: list[Span]) -> list[str]:
    """Children lie within their parent, siblings do not overlap, self times are >= 0."""
    problems = []
    last_child_end: dict[int, float] = {}
    for s in spans:
        if not s.end >= s.start:
            problems.append(f"span {s.index} {s.name} ends before it starts")
        if s.parent is None:
            continue
        parent = spans[s.parent]
        if not (parent.start <= s.start and s.end <= parent.end):
            problems.append(f"span {s.index} {s.name} lies outside its parent {parent.name}")
        if s.start < last_child_end.get(s.parent, -math.inf):
            problems.append(f"span {s.index} {s.name} overlaps an earlier sibling")
        last_child_end[s.parent] = s.end
    for s, value in zip(spans, self_times(spans)):
        if value < -1e-9:  # rounding of the subtraction, far below timer resolution
            problems.append(f"span {s.index} {s.name} has negative self time {value}")
    return problems


def selftest() -> None:
    """A synthetic trace with known nesting must pass check_spans and give known self times."""
    t = Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 10.0, 2.0, 5.0
    if self_times(t.spans) != [7.0, 3.0] or check_spans(t.spans):
        raise RuntimeError(f"tracing self-test: self times {self_times(t.spans)}")
    inner.end = 11.0
    if not check_spans(t.spans):
        raise RuntimeError("tracing self-test: a child outside its parent went unnoticed")


def layer_metrics(spans: list[Span], count_units: set) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a traced pass.

    Timings use every span; counts use only spans whose unit is in count_units,
    a fixed set of inputs, so they repeat exactly for a given seed. Returns the
    metrics and the problems found in the estimates seen on the way.
    """
    selfs = self_times(spans)
    time_by = Counter()
    calls_by = Counter()
    self_by = Counter()
    for s, own in zip(spans, selfs):
        time_by[s.name] += s.seconds
        calls_by[s.name] += 1
        self_by[s.name] += own

    def ms_per(totals: Counter, name: str, per: str | None = None) -> float:
        """Milliseconds of `totals[name]` per call of `per` (default: of `name`)."""
        n = calls_by[per or name]
        return 1e3 * totals[name] / n if n else 0.0

    counted = [s for s in spans if s.unit in count_units]
    count = Counter(s.name for s in counted)
    m: dict[str, float] = {}
    problems: list[str] = []

    m["simlab.sample.calls"] = count["simlab.sample"]
    m["simlab.sample.ms_per_call"] = ms_per(time_by, "simlab.sample")
    m["simlab.truncate.ms_per_call"] = ms_per(
        time_by, "simlab.truncate", "simlab.sample"
    ) + ms_per(time_by, "simlab.inflate", "simlab.sample")
    m["freqtab.parse.ms_per_call"] = ms_per(time_by, "freqtab.parse", "cli.main")
    m["cli.self_ms_per_call"] = ms_per(self_by, "cli.main")
    m["freqtab.get.calls"] = count["freqtab.get"]
    m["freqtab.tail_cutoff.ms_per_call"] = ms_per(time_by, "freqtab.tail_cutoff")
    m["ratiofit.series.ms_per_call"] = ms_per(time_by, "ratiofit.series")
    points = [s.attrs["points"] for s in counted if s.name == "ratiofit.series" and s.attrs]
    m["ratiofit.series.points_mean"] = sum(points) / len(points) if points else 0.0

    fits = [s for s in spans if s.name == "ratiofit.fit"]
    for p, q in RUNGS:
        rung = rung_name(p, q)
        all_rung = [s for s in fits if s.attrs["rung"] == rung]
        counted_rung = [s for s in all_rung if s.unit in count_units]
        finished = [s for s in counted_rung if "iterations" in s.attrs]
        prefix = f"ratiofit.fit.{rung}"
        m[f"{prefix}.calls"] = len(counted_rung)
        m[f"{prefix}.ms_per_call"] = (
            1e3 * sum(s.seconds for s in all_rung) / len(all_rung) if all_rung else 0.0
        )
        m[f"{prefix}.iterations_mean"] = (
            sum(s.attrs["iterations"] for s in finished) / len(finished) if finished else 0.0
        )
        m[f"{prefix}.converged_share"] = (
            sum(s.attrs["converged"] for s in finished) / len(finished) if finished else 0.0
        )
        m[f"{prefix}.raised"] = len(counted_rung) - len(finished)

    selects = [s for s in counted if s.name == "estimators.select"]
    n_fits = count["ratiofit.fit"]
    outcomes = Counter()
    accepted = Counter()
    for s in selects:
        tried = (s.attrs or {}).get("tried", [])
        for p, q, outcome in tried:
            outcomes[outcome] += 1
            if outcome == "accepted":
                owner = spans[s.parent].name.split(".")[-1] if s.parent is not None else "?"
                accepted[(owner, rung_name(p, q))] += 1
    unknown = set(outcomes) - set(OUTCOMES)
    if unknown:
        problems.append(f"unknown selection outcomes {sorted(unknown)}")
    m["estimators.select.self_ms_per_call"] = ms_per(self_by, "estimators.select")
    m["estimators.select.fits_per_call"] = n_fits / len(selects) if selects else 0.0
    m["estimators.select.useful_fit_share"] = outcomes["accepted"] / n_fits if n_fits else 0.0
    for est in ("nof1", "breakaway"):
        for p, q in RUNGS:
            m[f"estimators.accepted.{est}.{rung_name(p, q)}"] = accepted[(est, rung_name(p, q))]
    for outcome in OUTCOMES:
        m[f"estimators.outcome.{outcome}"] = outcomes[outcome]

    for est in ("nof1", "breakaway", "chao1"):
        m[f"estimators.{est}.ms_per_call"] = ms_per(time_by, f"estimators.{est}")
    m["estimators.se.ms_per_call"] = ms_per(time_by, "estimators.se")
    m["ratiofit.derived.ms_per_call"] = ms_per(time_by, "ratiofit.derived")

    failed = Counter()
    for s in counted:
        reason = (s.attrs or {}).get("failure")
        if reason is not None:
            failed[reason] += 1
        if s.name.startswith("estimators.") and s.attrs and s.attrs.get("ok"):
            c_hat, se, floor = s.attrs["C_hat"], s.attrs["se"], s.attrs["floor"]
            if not (math.isfinite(c_hat) and c_hat >= floor and se >= 0.0):
                problems.append(
                    f"{s.name} gave C_hat={c_hat} se={se} (observed floor {floor})"
                )
    unexpected = set(failed) - set(FAILURES)
    if unexpected:
        problems.append(f"estimator failures of unexpected type {sorted(unexpected)}")
    for reason in FAILURES:
        m[f"estimators.failed.{reason}"] = failed[reason]
    return m, problems
