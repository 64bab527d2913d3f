"""Span tracing for the pipeline benchmark, from outside the program.

:func:`install` wraps the public functions of each layer of ``repro`` at
the names their callers look up: a module-level function is replaced in
every loaded ``repro`` module that imported it by name (for example both
``repro.hashing.mersenne.horner_mod`` and ``repro.core.plan.horner_mod``);
a method is replaced on its class.  Nothing under ``src/`` changes.

Two kinds of span are kept in memory:

* **sync** spans wrap plain functions.  The whole benchmark runs on one
  thread and one event loop, and a plain function never yields to the
  loop, so sync spans nest as a stack.  A span's self time is its
  duration minus the time its child spans cover; the self times of all
  sync spans add up to the time spent inside them, never more.
* **async** spans wrap coroutines (a site's ``ship``, a leaf's
  ``ship_upstream``).  Other tasks run while they wait, so they are
  reported as durations only and are left out of self-time accounting.

Every span records its name, start, end, parent span and the round (or
request) id the benchmark set when it started.  :meth:`Tracer.save`
writes them out when the workload ends; :func:`summarize` reads them
back for the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import pathlib
import sys
import time
from array import array

_current_async: contextvars.ContextVar[int] = contextvars.ContextVar(
    "pipebench_async_span", default=-1
)


class Tracer:
    """In-memory span store with a stack for the sync spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.round = array("q")
        self.self_time = array("d")
        self.is_async = array("b")
        self.counts: dict[str, float] = {}
        self.round_id = 0
        self._stack: list[list] = []

    def _name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _open(self, name_id: int, is_async: bool) -> int:
        index = len(self.start)
        if self._stack:
            parent = self._stack[-1][0]
        else:
            parent = _current_async.get()
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(parent)
        self.round.append(self.round_id)
        self.self_time.append(0.0)
        self.is_async.append(1 if is_async else 0)
        return index

    def _close(self, index: int, frame: list) -> None:
        now = time.perf_counter()
        self._stack.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_time[index] = duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sync(self, name: str, fn, counter=None):
        """Wrap plain function ``fn`` in a sync span called ``name``.

        ``counter(tracer, args, kwargs, result)``, when given, runs
        after the span closes and may call :meth:`count`.
        """
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id, False)
            frame = [index, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, frame)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def coroutine(self, name: str, fn):
        """Wrap coroutine function ``fn`` in an async span."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            index = self._open(name_id, True)
            token = _current_async.set(index)
            try:
                return await fn(*args, **kwargs)
            finally:
                _current_async.reset(token)
                now = time.perf_counter()
                self.end[index] = now
                self.self_time[index] = now - self.start[index]

        return wrapper

    def span(self, name: str):
        """Context manager for a sync span around benchmark code."""
        return _Span(self, self._name_id(name))

    def save(self, path: str, window: tuple[float, float]) -> None:
        """Write every span and the timed window as JSON."""
        payload = {
            "names": self.names,
            "window": list(window),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "round": self.round.tolist(),
            "self": self.self_time.tolist(),
            "async": self.is_async.tolist(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self):
        tracer = self._tracer
        self._index = tracer._open(self._name_id, False)
        self._frame = [self._index, 0.0]
        tracer._stack.append(self._frame)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._index, self._frame)


# -- what gets wrapped -------------------------------------------------------

def _count_hashes(tracer, args, kwargs, result) -> None:
    """First-level hash evaluations: ``r * n`` for a stacked call."""
    tracer.count("hashing.element_hashes", int(result.size))


def _count_ingest(tracer, args, kwargs, result) -> None:
    """Updates into ``ingest_batch`` and distinct keys out of it."""
    elements = args[1] if len(args) > 1 else kwargs["elements"]
    tracer.count("family.ingest_in", len(elements))
    tracer.count("family.ingest_out", int(result))


def _count_checkpoint(tracer, args, kwargs, result) -> None:
    """Bytes a checkpoint left on disk (its directory's files)."""
    directory = pathlib.Path(args[1] if len(args) > 1 else kwargs["directory"])
    tracer.count("checkpoint.bytes", sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    ))


def _count_call(key: str):
    def count(tracer, args, kwargs, result) -> None:
        tracer.count(key)

    return count


_ESTIMATOR_CALL = _count_call("estimators.calls")

#: Counts kept at a wrapped function, by the function's qualified name.
COUNTERS = {
    "horner_mod": _count_hashes,
    "estimate_union": _ESTIMATOR_CALL,
    "choose_witness_level": _ESTIMATOR_CALL,
    "run_witness_estimator": _ESTIMATOR_CALL,
    "estimate_expression": _ESTIMATOR_CALL,
    "encode_message": _count_call("protocol.frames"),
    "checkpoint_engine": _count_checkpoint,
    "SketchFamily.ingest_batch": _count_ingest,
}

# (module, function names, span name) for module functions.
FUNCTIONS = (
    ("repro.hashing.mersenne", ("horner_mod",), "hashing"),
    ("repro.hashing.lsb", ("lsb_array",), "hashing"),
    ("repro.core.union", ("estimate_union",), "estimators"),
    ("repro.core.witness", ("choose_witness_level", "run_witness_estimator"),
     "estimators"),
    ("repro.core.expression", ("estimate_expression",), "estimators"),
    ("repro.core.checks", ("combined_singleton_union_mask", "empty_mask"),
     "estimators"),
    ("repro.streams.net.codec", ("encode_delta",), "codec.encode"),
    ("repro.streams.net.codec", ("decode_cells", "decode_dense"), "codec.decode"),
    ("repro.streams.net.protocol", (
        "encode_message", "decode_message", "delta_message", "export_from_message",
        "hello_message", "welcome_message", "ack_message", "query_message",
        "query_result_message", "query_from_message",
    ), "protocol"),
    ("repro.streams.serving", ("estimate_to_dict", "estimate_from_dict"),
     "serving.session"),
    ("repro.streams.checkpoint", ("checkpoint_engine",), "checkpoint"),
    ("repro.streams.distributed", ("coalesce_exports",), "distributed.export"),
)

# (module, class, method names, span name) for methods.
METHODS = (
    ("repro.hashing.families", "BinaryHashBank", ("bits",), "hashing"),
    ("repro.core.plan", "HashPlan", ("compute_rows",), "hashing"),
    ("repro.core.plan", "HashPlan",
     ("scatter_parts", "scatter_rows", "scatter", "scatter_local"), "plan"),
    ("repro.core.family", "SketchFamily", (
        "ingest_batch", "update_batch", "diff_from", "is_zero", "nonzero_cells",
        "from_cells", "add_cells", "merge_in_place", "subtract_in_place",
        "copy", "to_bytes", "from_bytes",
    ), "family"),
    ("repro.streams.engine", "StreamEngine",
     ("process_many", "observe_many", "flush", "merge_delta"), "engine.ingest"),
    ("repro.streams.engine", "StreamEngine",
     ("query", "query_many", "query_union"), "engine.query"),
    ("repro.streams.engine", "StreamEngine",
     ("advance_to", "window_family"), "windows"),
    ("repro.streams.windows", "WindowRing",
     ("advance_to", "flush", "family", "merge_at"), "windows"),
    ("repro.streams.serving", "QueryServer", ("_drain",), "serving.drain"),
    ("repro.streams.serving", "QueryServer", ("_admit",), "serving.session"),
    ("repro.streams.serving", "PlanCache", ("get",), "serving.session"),
    ("repro.streams.distributed", "StreamSite", ("export",), "distributed.export"),
    ("repro.streams.distributed", "Coordinator", ("collect",), "distributed.collect"),
    ("repro.streams.distributed", "Coordinator",
     ("query", "query_union", "query_many", "families"), "distributed.query"),
    ("repro.streams.net.coordinator", "CoordinatorServer", ("checkpoint",), "checkpoint"),
)

# Coroutine methods: durations only.
COROUTINES = (
    ("repro.streams.net.site", "SiteClient", "ship", "site.ship"),
    ("repro.streams.net.coordinator", "CoordinatorServer", "ship_upstream",
     "coordinator.uplink"),
)


def install(tracer: Tracer) -> int:
    """Wrap every listed function; returns how many bindings changed."""
    import importlib

    for module_name, *_ in FUNCTIONS + METHODS + COROUTINES:
        importlib.import_module(module_name)
    loaded = [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    patched = 0
    for module_name, names, span in FUNCTIONS:
        home = sys.modules[module_name]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = tracer.sync(span, original, COUNTERS.get(fn_name))
            for module in loaded:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, wrapped)
                    patched += 1
    for module_name, class_name, names, span in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        for method in names:
            raw = inspect.getattr_static(cls, method)
            counter = COUNTERS.get(f"{class_name}.{method}")
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.sync(span, raw.__func__, counter))
            else:
                wrapped = tracer.sync(span, raw, counter)
            setattr(cls, method, wrapped)
            patched += 1
    for module_name, class_name, method, span in COROUTINES:
        cls = getattr(sys.modules[module_name], class_name)
        setattr(cls, method, tracer.coroutine(span, getattr(cls, method)))
        patched += 1
    return patched


# -- reading a trace back ------------------------------------------------------

#: Sync span names whose self times make up the per-layer ``*_self_s``.
LAYERS = (
    "hashing", "plan", "family", "engine.ingest", "engine.query", "estimators",
    "windows", "serving.drain", "serving.session", "distributed.export",
    "distributed.collect", "distributed.query", "codec.encode", "codec.decode",
    "protocol", "checkpoint", "bench.generator",
)


def summarize(path: str) -> dict:
    """Per-layer self times, async totals and coverage of one trace.

    Only spans that start inside the timed window count.  ``coverage``
    is the share of the window's wall time that sync spans (the layers
    plus the benchmark's generator) account for.
    """
    with open(path) as handle:
        trace = json.load(handle)
    lo, hi = trace["window"]
    names = trace["names"]
    self_by = {name: 0.0 for name in LAYERS}
    async_by: dict[str, float] = {}
    spans = 0
    drains = []
    for name_id, start, end, self_time, is_async in zip(
        trace["name"], trace["start"], trace["end"], trace["self"], trace["async"]
    ):
        if not (lo <= start < hi):
            continue
        spans += 1
        name = names[name_id]
        if is_async:
            async_by[name] = async_by.get(name, 0.0) + (end - start)
            continue
        self_by[name] = self_by.get(name, 0.0) + self_time
        if name == "serving.drain":
            drains.append((start, end))
    wall = hi - lo
    covered = sum(self_by.values())
    return {
        "self": self_by,
        "async": async_by,
        "wall": wall,
        "coverage": covered / wall if wall > 0 else 0.0,
        "spans": spans,
        "drains": drains,
    }
