"""Spans around the calls into each passagelab module's public functions.

The program has no tracing of its own. `Tracer.install` replaces every public
function of the layer modules, wherever the package or a sibling module holds
a reference to it, with a wrapper that records a span: name, start, end and
the span that called it. Spans stay in memory. A few spans also keep their
arguments and result until `digest` turns them into counts, which it does
between operations, outside the timed window.
"""
from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

LAYERS = ("core", "propagator", "detector", "passage", "precision", "discrete_oracle", "cli_io")

ARRIVAL = "passage.arrival_stage"
PASSAGE = "passage.passage_distribution"
SWEEP = "precision.scaling_sweep"
PROBE = "precision.convergence_probe"
DENSITY = "discrete_oracle.discrete_reset_density"
FREE_STATE = "core.gaussian_free_state"
KIJOWSKI = "passage.kijowski_distribution"
CLI_MAIN = "cli_io.main"
KEEP = (ARRIVAL, PASSAGE, DENSITY, KIJOWSKI)

# (name, unit) of every per-layer metric, in the order they are reported;
# "computed" ones are derived from counts and array shapes, not timed
PER_LAYER = (
    ("passage.arrival_s", "s"),
    ("passage.arrival_steps", "count"),
    ("propagator.arrival_step_us", "us"),
    ("passage.stage2_s", "s"),
    ("passage.stage2_rank", "count"),
    ("passage.stage2_row_steps", "count"),
    ("propagator.row_step_us", "us"),
    ("propagator.fft_calls", "count"),
    ("propagator.batch_bytes", "B"),
    ("passage.ensemble_mb", "MB"),
    ("precision.probe_s", "s"),
    ("precision.point_s", "s"),
    ("precision.arrival_calls", "count"),
    ("discrete_oracle.density_s", "s"),
    ("discrete_oracle.node_us", "us"),
    ("core.free_state_us", "us"),
    ("passage.kijowski_s", "s"),
    ("passage.kijowski_chirp_mb", "MB"),
    ("cli_io.overhead_s", "s"),
    ("cli_io.csv_rows", "count"),
    ("process.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
COMPUTED = (
    "propagator.fft_calls",
    "propagator.batch_bytes",
    "passage.ensemble_mb",
    "passage.kijowski_chirp_mb",
)


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "data", "counts")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.data = None
        self.counts: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def inside(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.point_times: list[float] = []
        self._stack: list[Span] = []
        self._undo: list = []
        self._fresh = 0

    def _wrap(self, name: str, fn):
        keep = name in KEEP
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.data = (bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = importlib.import_module("passagelab")
        modules = {m: importlib.import_module(f"passagelab.{m}") for m in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for n in public_functions(module):
                fn = getattr(module, n)
                wrappers[fn] = self._wrap(f"{layer}.{n}", fn)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def mapper(self, fn, items):
        """Serial map that times each call; scaling_sweep accepts it as mapper."""
        for item in items:
            t0 = time.perf_counter()
            result = fn(item)
            self.point_times.append(time.perf_counter() - t0)
            yield result

    def digest(self, kept_rank) -> None:
        """Turn the kept arguments and results of new spans into counts."""
        fresh = self.spans[self._fresh :]
        self._fresh = len(self.spans)
        for span in fresh:
            if span.data is None:
                continue
            args, result = span.data
            if span.name == ARRIVAL:
                cfg = args["cfg"]
                record, ensemble = result
                snapshot = round((ensemble.entry_times[-1] - record.times[0]) / cfg.dt)
                span.counts = {
                    "steps": len(record.times) - 1 + snapshot,
                    "ensemble_bytes": ensemble.states.nbytes,
                }
            elif span.name == PASSAGE:
                cfg = args["cfg"]
                ensemble = args["ensemble"]
                if ensemble is None:
                    ensemble = next(
                        s.data[1][1] for s in fresh if s.parent is span and s.name == ARRIVAL
                    )
                dt2 = cfg.dt2 if cfg.dt2 is not None else cfg.dt
                rank = kept_rank(cfg, ensemble)
                steps = round(float(result.tau[-1]) / dt2)
                span.counts = {
                    "rank": rank,
                    "steps": steps,
                    "row_steps": rank * steps,
                    "batch_bytes": rank * cfg.grid.n_points * 16,
                }
            elif span.name == DENSITY:
                span.counts = {"nodes": args["cfg"].n_time_samples}
            elif span.name == KIJOWSKI:
                n_t = len(np.atleast_1d(args["t_grid"]))
                span.counts = {"chirp_bytes": n_t * args["n_k"] * 16}
        for span in fresh:
            span.data = None

    def table(self) -> dict:
        """Calls, total and self seconds per traced function."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child.get(id(s), 0.0)
        return out

    def metrics(self, rounds: int, csv_rows: int, cpu_s: float, wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics, per round, from the spans of `rounds` traced rounds."""

        def spans(name):
            return [s for s in self.spans if s.name == name]

        def total(name):
            return sum(s.duration for s in spans(name))

        def count(name, key):
            return sum(s.counts.get(key, 0) for s in spans(name))

        def largest(name, key):
            return max((s.counts.get(key, 0) for s in spans(name)), default=0)

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        nested_arrival = sum(
            s.duration for s in spans(ARRIVAL) if s.parent is not None and s.parent.name == PASSAGE
        )
        library_in_cli = sum(
            s.duration
            for s in self.spans
            if s.layer != "cli_io" and s.parent is not None and s.parent.layer == "cli_io"
        )
        free_states = spans(FREE_STATE)
        arrival_s = total(ARRIVAL)
        arrival_steps = count(ARRIVAL, "steps")
        stage2_s = total(PASSAGE) - nested_arrival
        stage2_steps = count(PASSAGE, "steps")
        row_steps = count(PASSAGE, "row_steps")
        density_s = total(DENSITY)
        cli_self = total(CLI_MAIN) - library_in_cli
        raw = {
            "passage.arrival_s": arrival_s / rounds,
            "passage.arrival_steps": arrival_steps // rounds,
            "propagator.arrival_step_us": ratio(arrival_s, arrival_steps, 1e6),
            "passage.stage2_s": stage2_s / rounds,
            "passage.stage2_rank": count(PASSAGE, "rank") // rounds,
            "passage.stage2_row_steps": row_steps // rounds,
            "propagator.row_step_us": ratio(stage2_s, row_steps, 1e6),
            "propagator.fft_calls": 2 * (arrival_steps + stage2_steps) // rounds,
            "propagator.batch_bytes": largest(PASSAGE, "batch_bytes"),
            "passage.ensemble_mb": largest(ARRIVAL, "ensemble_bytes") / 1e6,
            "precision.probe_s": total(PROBE) / rounds,
            "precision.point_s": float(np.mean(self.point_times)) if self.point_times else 0.0,
            "precision.arrival_calls": sum(s.inside(SWEEP) for s in spans(ARRIVAL)) // rounds,
            "discrete_oracle.density_s": density_s / rounds,
            "discrete_oracle.node_us": ratio(density_s, count(DENSITY, "nodes"), 1e6),
            "core.free_state_us": ratio(sum(s.duration for s in free_states), len(free_states), 1e6),
            "passage.kijowski_s": total(KIJOWSKI) / rounds,
            "passage.kijowski_chirp_mb": largest(KIJOWSKI, "chirp_bytes") / 1e6,
            "cli_io.overhead_s": cli_self / rounds,
            "cli_io.csv_rows": csv_rows,
            "process.cpu_s": cpu_s,
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
        }
        return {name: {"value": raw[name], "unit": unit} for name, unit in PER_LAYER}
