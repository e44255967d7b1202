"""Spans around the program's public layer functions, recorded from outside.

`Tracer.install()` swaps the module attributes that `run_trial` looks up at
call time for wrappers that record (name, start, end, round) spans in memory;
`restore()` puts the originals back. `layer_metrics` turns the spans, and the
wall time `run_trial` records for each round, into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from kanfed import federation, metrics, models

INPUT_WIDTH = 784


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    round: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _spline_width(args) -> int:
    # bspline_basis_lower(x, grid) / basis_from_lower(x, grid, lower): x is (batch, width);
    # derivative_from_lower(grid, lower): lower is (batch, width, n)
    return args[0].shape[-1] if hasattr(args[0], "shape") else args[1].shape[-2]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._round: int | None = None
        self._rounds_seen = 0

    def _wrap(self, module, attr: str, name: str, name_of=None, on_call=None):
        """Replace module.attr by a spanning wrapper; on_call(args) runs first
        and may return attributes for the span."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            attrs = (on_call(args) if on_call is not None else None) or {}
            span = Span(name if name_of is None else name_of(args), 0.0, round=self._round,
                        attrs=attrs)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def _new_round(self, args):
        self._rounds_seen += 1
        self._round = self._rounds_seen

    @staticmethod
    def _note_deltas(args):
        return {"delta_bytes": sum(u.delta.nbytes for u in args[0])}

    def install(self) -> "Tracer":
        spline_name = lambda stem: lambda args: (
            f"splines.{stem}_{'l0' if _spline_width(args) == INPUT_WIDTH else 'hidden'}")
        w = self._wrap
        w(federation, "sample_clients", "federation.sample_clients", on_call=self._new_round)
        w(federation, "local_train", "federation.local_train")
        w(federation, "aggregate", "federation.aggregate", on_call=self._note_deltas)
        w(federation, "server_step", "federation.server_step")
        w(federation, "evaluate", "metrics.evaluate")
        w(federation, "forward", "models.forward_train")
        w(federation, "backward", "models.backward")
        w(federation, "softmax_cross_entropy", "numerics.softmax_cross_entropy")
        w(federation, "sgd_momentum_step", "numerics.sgd_momentum_step")
        w(metrics, "forward", "models.forward_eval")
        w(metrics, "write_logs", "metrics.write_logs")
        w(models, "bspline_basis_lower", "", name_of=spline_name("basis_lower"))
        w(models, "basis_from_lower", "", name_of=spline_name("basis_from_lower"))
        w(models, "derivative_from_lower", "", name_of=spline_name("derivative"))
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


SPLINE_METRICS = [f"splines.{stem}_{where}_s"
                  for where in ("l0", "hidden")
                  for stem in ("basis_lower", "basis_from_lower", "derivative")]


def layer_metrics(spans: list[Span], round_elapsed: list[float]) -> dict[str, float]:
    """Per-round medians of summed span time, per-call medians and counts.

    round_elapsed[k] is the `elapsed_s` that `run_trial` recorded for traced
    round k + 1, in the order the rounds ran."""
    rounds = sorted({s.round for s in spans if s.round is not None})

    def per_round(pred, value=lambda s: s.seconds) -> float:
        totals = {r: 0.0 for r in rounds}
        for s in spans:
            if s.round is not None and pred(s):
                totals[s.round] += value(s)
        return statistics.median(totals.values()) if totals else 0.0

    def per_call(name) -> float:
        times = [s.seconds for s in spans if s.name == name]
        return statistics.median(times) if times else 0.0

    named = lambda *names: lambda s: s.name in names
    out = {
        "federation.local_train_s": per_call("federation.local_train"),
        "federation.train_phase_s": per_round(named("federation.local_train")),
        "federation.aggregate_s": per_round(named("federation.aggregate")),
        "federation.server_step_s": per_round(named("federation.server_step")),
        "federation.client_updates": per_round(named("federation.local_train"), lambda s: 1),
        "federation.delta_bytes": per_round(named("federation.aggregate"),
                                            lambda s: s.attrs["delta_bytes"]),
        "models.forward_bs64_s": per_call("models.forward_train"),
        "models.backward_bs64_s": per_call("models.backward"),
        "models.forward_bs512_s": per_call("models.forward_eval"),
        "models.forward_calls": per_round(named("models.forward_train", "models.forward_eval"),
                                          lambda s: 1),
        "models.backward_calls": per_round(named("models.backward"), lambda s: 1),
        "numerics.softmax_cross_entropy_s": per_round(named("numerics.softmax_cross_entropy")),
        "numerics.sgd_momentum_step_s": per_round(named("numerics.sgd_momentum_step")),
        "metrics.evaluate_s": per_round(named("metrics.evaluate")),
        "metrics.write_logs_s": per_call("metrics.write_logs"),
        "splines.total_s": per_round(lambda s: s.name.startswith("splines.")),
    }
    for name in SPLINE_METRICS:
        out[name] = per_round(named(name[: -len("_s")]))

    # federation self time: a round's recorded wall time minus its children's spans
    children = ("federation.local_train", "federation.aggregate", "federation.server_step",
                "metrics.evaluate")
    covered = {r: 0.0 for r in rounds}
    for s in spans:
        if s.round is not None and s.name in children:
            covered[s.round] += s.seconds
    self_s = [elapsed - covered[r] for r, elapsed in enumerate(round_elapsed, start=1)]
    out["federation.self_s"] = statistics.median(self_s) if self_s else 0.0
    return out
