"""Span tracing of envcorr's layers, installed from outside the package.

`Tracer.install` replaces public module attributes of envcorr with wrappers
that record one span per call: name, start, end, the enclosing traced span
and the op it belongs to. The package looks these attributes up at call
time (`montecarlo.sample(...)`, `qkd.key_rate(...)`, module globals in
`cli`), so nested layers are caught without touching the package source.
Spans stay in memory until `layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

from envcorr import cli, herald, montecarlo, qkd

TRACED = (
    (cli, ("main", "load_config", "formula_values", "mc_counterparts", "write_csv", "write_json")),
    (
        montecarlo,
        (
            "sample",
            "estimate_added_noise",
            "estimate_gain",
            "estimate_zero_window",
            "windowed_moments",
        ),
    ),
    (herald, ("heralded_statistics",)),
    (qkd, ("key_rate",)),
)

# per-layer metrics in BENCHMARK.json order; counts and times are per op
PER_LAYER = (
    ("montecarlo.sample.calls", "count"),
    ("montecarlo.sample.busy_ms", "ms"),
    ("montecarlo.sample.traj_per_s", "1/s"),
    ("montecarlo.sample.bytes_computed", "bytes"),
    ("montecarlo.estimate_added_noise.busy_ms", "ms"),
    ("montecarlo.estimate_gain.busy_ms", "ms"),
    ("montecarlo.estimate_zero_window.busy_ms", "ms"),
    ("montecarlo.windowed_moments.calls", "count"),
    ("montecarlo.windowed_moments.busy_ms", "ms"),
    ("montecarlo.windowed_moments.traj_per_s", "1/s"),
    ("herald.heralded_statistics.self_ms", "ms"),
    ("herald.accept_ratio", "ratio"),
    ("qkd.key_rate.collective.call_p50_us", "us"),
    ("qkd.key_rate.individual.call_p50_us", "us"),
    ("qkd.key_rate.busy_ms", "ms"),
    ("cli.mc_counterparts.sample_calls", "count"),
    ("cli.mc_counterparts.busy_ms", "ms"),
    ("cli.formula_values.busy_ms", "ms"),
    ("cli.load_config.busy_ms", "ms"),
    ("cli.write_csv.busy_ms", "ms"),
    ("cli.write_json.busy_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

# bytes a record batch occupies: 10 float64 columns per trajectory
RECORD_BYTES = 10 * 8


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info")

    def __init__(self, name: str, parent, op: int, info: dict):
        self.name, self.parent, self.op, self.info = name, parent, op, info
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


# the one argument a span keeps for each traced call that needs one
RECORDED = {"montecarlo.sample": "n", "montecarlo.windowed_moments": "n", "qkd.key_rate": "attack"}


def _argument_getter(fn, name: str):
    """Read one argument of a call to fn without binding the others."""
    sig = inspect.signature(fn)
    position, default = list(sig.parameters).index(name), sig.parameters[name].default
    def getter(args, kwargs):
        return args[position] if len(args) > position else kwargs.get(name, default)

    return getter


class Tracer:
    """Records spans for the traced envcorr attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list = []
        self._op = 0

    def install(self, op: int) -> None:
        self._op = op
        for module, names in TRACED:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{short}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        recorded = RECORDED.get(name)
        getter = _argument_getter(fn, recorded) if recorded else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = {recorded: getter(args, kwargs)} if getter else {}
            span = Span(name, self._stack[-1] if self._stack else None, self._op, info)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.info["failed"] = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "herald.heralded_statistics":
                span.info.update(accepted=result.n_accepted, drawn=result.n_total)
            return result

        return traced


def layer_metrics(spans: list[Span], n_ops: int, overhead_pct: float) -> dict:
    """Reduce spans over n_ops traced ops to the PER_LAYER values."""
    by_name = defaultdict(list)
    nested = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            nested[id(span.parent)] += span.seconds

    def calls(name):
        return len(by_name[name]) / n_ops

    def busy_ms(name):
        return sum(s.seconds for s in by_name[name]) * 1e3 / n_ops

    def self_ms(name):
        return sum(s.seconds - nested[id(s)] for s in by_name[name]) * 1e3 / n_ops

    def traj_per_s(name):
        seconds = sum(s.seconds for s in by_name[name])
        return sum(s.info["n"] for s in by_name[name]) / seconds if seconds else 0.0

    def call_p50_us(attack):
        times = [
            s.seconds for s in by_name["qkd.key_rate"]
            if s.info["attack"] is attack and not s.info.get("failed")
        ]
        return statistics.median(times) * 1e6 if times else 0.0

    heralds = by_name["herald.heralded_statistics"]
    drawn = sum(s.info.get("drawn", 0) for s in heralds)
    counterparts = by_name["cli.mc_counterparts"]
    nested_samples = sum(
        1 for s in by_name["montecarlo.sample"]
        if s.parent is not None and s.parent.name == "cli.mc_counterparts"
    )
    values = {
        "montecarlo.sample.calls": calls("montecarlo.sample"),
        "montecarlo.sample.busy_ms": busy_ms("montecarlo.sample"),
        "montecarlo.sample.traj_per_s": traj_per_s("montecarlo.sample"),
        "montecarlo.sample.bytes_computed": sum(
            s.info["n"] for s in by_name["montecarlo.sample"]
        ) * RECORD_BYTES / n_ops,
        "montecarlo.estimate_added_noise.busy_ms": busy_ms("montecarlo.estimate_added_noise"),
        "montecarlo.estimate_gain.busy_ms": busy_ms("montecarlo.estimate_gain"),
        "montecarlo.estimate_zero_window.busy_ms": busy_ms("montecarlo.estimate_zero_window"),
        "montecarlo.windowed_moments.calls": calls("montecarlo.windowed_moments"),
        "montecarlo.windowed_moments.busy_ms": busy_ms("montecarlo.windowed_moments"),
        "montecarlo.windowed_moments.traj_per_s": traj_per_s("montecarlo.windowed_moments"),
        "herald.heralded_statistics.self_ms": self_ms("herald.heralded_statistics"),
        "herald.accept_ratio": (
            sum(s.info.get("accepted", 0) for s in heralds) / drawn if drawn else 0.0
        ),
        "qkd.key_rate.collective.call_p50_us": call_p50_us(qkd.Attack.COLLECTIVE),
        "qkd.key_rate.individual.call_p50_us": call_p50_us(qkd.Attack.INDIVIDUAL),
        "qkd.key_rate.busy_ms": busy_ms("qkd.key_rate"),
        "cli.mc_counterparts.sample_calls": (
            nested_samples / len(counterparts) if counterparts else 0.0
        ),
        "cli.mc_counterparts.busy_ms": busy_ms("cli.mc_counterparts"),
        "cli.formula_values.busy_ms": busy_ms("cli.formula_values"),
        "cli.load_config.busy_ms": busy_ms("cli.load_config"),
        "cli.write_csv.busy_ms": busy_ms("cli.write_csv"),
        "cli.write_json.busy_ms": busy_ms("cli.write_json"),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
