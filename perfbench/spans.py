"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is a dict with ``id``, ``parent``, ``name``, ``thread``, ``start`` and
``end`` (``time.perf_counter`` seconds) plus any counts recorded at the same
boundary. The layer of a span is the part of its name before the first dot;
layer names are the ``otcd`` module names.

Parent rule: the innermost open span on the same thread. A span opened on a
thread with no open span (a pool worker) gets the innermost open span of the
thread that opened the root, which is the one that submitted the work.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager


class Recorder:
    """Thread-safe recorder; spans stay in memory until :attr:`spans` is read."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[dict]] = {}
        self._root_thread: int | None = None

    def _open(self, name: str) -> dict:
        thread = threading.get_ident()
        with self._lock:
            if self._root_thread is None:
                self._root_thread = thread
            stack = self._stacks.setdefault(thread, [])
            enclosing = stack or self._stacks[self._root_thread]
            span = {
                "id": len(self.spans),
                "parent": enclosing[-1]["id"] if enclosing else None,
                "name": name,
                "thread": thread,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        with self._lock:
            self._stacks[span["thread"]].pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a wrapper recording a span per call.

        ``counts(args, kwargs, result)`` returns a dict merged into the span;
        it runs after the span closes, so its cost is not the callee's.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if counts is not None:
                s.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, traced)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Layer name -> summed self time of its spans."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def _named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def _total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in _named(spans, name))


def chunk_schedule(spans: list[dict], workers: int) -> dict[str, float]:
    """Chunk timing of the solve phase.

    Every chunk is queued when ``build_chunks`` returns (``pool.map`` submits
    them all at once), so a chunk's wait is its start minus that instant. The
    solve phase runs from there to the end of the last chunk.
    """
    chunks = _named(spans, "detection.chunk")
    builds = _named(spans, "chunking.build")
    if not chunks or not builds:
        return {"busy_s": 0.0, "parallel_eff": 0.0, "chunk_wait_s": 0.0,
                "chunk_ms_p50": 0.0, "chunk_ms_max": 0.0}
    submit = builds[-1]["end"]
    durations = [s["end"] - s["start"] for s in chunks]
    busy = sum(durations)
    wall = max(s["end"] for s in chunks) - submit
    return {
        "busy_s": busy,
        "parallel_eff": busy / (workers * wall) if wall > 0 else 0.0,
        "chunk_wait_s": sum(s["start"] - submit for s in chunks),
        "chunk_ms_p50": statistics.median(durations) * 1e3,
        "chunk_ms_max": max(durations) * 1e3,
    }


def layer_metrics(spans: list[dict], workers: int, untraced_run_s: float) -> dict:
    """Every per-layer metric of one traced run, keyed by metric name."""
    own = self_times(spans)
    root = next(s for s in spans if s["parent"] is None)
    run_s = root["end"] - root["start"]
    sink = _named(spans, "solver.sinkhorn")
    sinkhorn_s = _total(spans, "solver.sinkhorn")
    cell_sweeps = sum(s["iterations"] * s["n0"] * s["n1"] for s in sink)
    build = _named(spans, "chunking.build")
    cells_total = sum(s["cells_total"] for s in build)
    schedule = chunk_schedule(spans, workers)
    return {
        "cli.self_s": sum(own[s["id"]] for s in spans if s["name"].startswith("cli.")),
        "io.read_s": _total(spans, "io.read"),
        "io.write_s": _total(spans, "io.write"),
        "io.bytes_in": sum(s["bytes"] for s in _named(spans, "io.read")),
        "io.bytes_out": sum(s["bytes"] for s in _named(spans, "io.write")),
        "chunking.build_s": _total(spans, "chunking.build"),
        "chunking.n_chunks": sum(s["n_chunks"] for s in build),
        "chunking.cells_total": cells_total,
        "chunking.cells_max_share": (
            max(s["cells_max"] for s in build) / cells_total if cells_total else 0.0
        ),
        "solver.cost_s": _total(spans, "solver.cost"),
        "solver.sinkhorn_s": sinkhorn_s,
        "solver.project_s": _total(spans, "solver.project"),
        "solver.sweeps_total": sum(s["iterations"] for s in sink),
        "solver.sweeps_max": max((s["iterations"] for s in sink), default=0),
        "solver.cell_sweeps": cell_sweeps,
        "solver.ns_per_cell_sweep": sinkhorn_s * 1e9 / cell_sweeps if cell_sweeps else 0.0,
        "solver.peak_bytes_est_max": max(
            (s["bytes"] for s in _named(spans, "solver.bytes")), default=0
        ),
        "solver.unconverged_chunks": sum(not s["converged"] for s in sink),
        "detection.self_s": sum(
            own[s["id"]]
            for s in spans
            if s["name"] in ("detection.detect", "detection.chunk")
        ),
        "detection.score_s": _total(spans, "detection.score"),
        "detection.merge_s": _total(spans, "detection.merge"),
        "detection.chunk_ms_p50": schedule["chunk_ms_p50"],
        "detection.chunk_ms_max": schedule["chunk_ms_max"],
        "detection.busy_s": schedule["busy_s"],
        "detection.parallel_eff": schedule["parallel_eff"],
        "detection.chunk_wait_s": schedule["chunk_wait_s"],
        "metrics.sweep_s": _total(spans, "metrics.sweep"),
        "trace.overhead_frac": (run_s - untraced_run_s) / untraced_run_s,
    }
