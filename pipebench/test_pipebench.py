"""Tests of the benchmark's own oracle and tracer.

Run from the root of the repository::

    python3 -m pytest pipebench -q

Each oracle check must pass on the program's real output and fail on a
perturbed counter or estimate; otherwise a benchmark run that reports
``correct: true`` would show nothing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from repro.core.family import SketchSpec  # noqa: E402
from repro.core.sketch import SketchShape  # noqa: E402
from repro.streams.engine import StreamEngine  # noqa: E402
from repro.streams.updates import Update  # noqa: E402

SPEC = SketchSpec(
    num_sketches=64,
    shape=SketchShape(domain_bits=20, num_second_level=8, independence=4),
    seed=5,
)


@pytest.fixture(scope="module")
def fed():
    """An engine fed a small legal stream, and the net frequencies."""
    engine = StreamEngine(SPEC)
    frequencies = {"A": {}, "B": {}}
    for i in range(3000):
        name = "AB"[i % 2]
        key = (i * 7919) % 2500
        delta = -1 if i % 5 == 4 and frequencies[name].get(key, 0) > 0 else 1
        engine.process(Update(name, key, delta))
        frequencies[name][key] = frequencies[name].get(key, 0) + delta
    engine.flush()
    return engine, frequencies


def totals(engine, names):
    return [oracle.level_totals(engine.family(name).counters) for name in names]


def test_counters_match_the_program(fed):
    engine, frequencies = fed
    for name in "AB":
        compared = oracle.check_counters(
            SPEC.hashes(), engine.family(name).counters,
            frequencies[name], range(SPEC.num_sketches), name,
        )
        assert compared == SPEC.num_sketches


def test_counters_check_fails_on_one_perturbed_cell(fed):
    engine, frequencies = fed
    counters = engine.family("A").counters.copy()
    counters[3, 2, 1, 0] += 1
    with pytest.raises(oracle.OracleMismatch, match="sketch 3 level 2"):
        oracle.check_counters(SPEC.hashes(), counters, frequencies["A"],
                              [3], "A")


def test_counters_check_fails_on_a_perturbed_frequency(fed):
    engine, frequencies = fed
    perturbed = dict(frequencies["B"])
    perturbed[next(iter(perturbed))] += 1
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_counters(SPEC.hashes(), engine.family("B").counters,
                              perturbed, range(SPEC.num_sketches), "B")


def test_union_check_accepts_the_program_and_rejects_perturbations(fed):
    engine, _ = fed
    answer = engine.query_union(["A", "B"], 0.1)
    assert answer.value > 0
    oracle.check_union(answer, totals(engine, "AB"), 0.1, "A|B")
    nudged = dataclasses.replace(answer, value=answer.value * (1 + 1e-9))
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_union(nudged, totals(engine, "AB"), 0.1, "A|B")
    moved = dataclasses.replace(answer, level=answer.level + 1)
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_union(moved, totals(engine, "AB"), 0.1, "A|B")


def test_union_check_fails_on_a_perturbed_counter(fed):
    engine, _ = fed
    answer = engine.query_union(["A"], 0.1)
    assert answer.value > 0
    perturbed = totals(engine, "A")
    # Empty the bucket of every sketch at the level the scan stopped on.
    for sketch in perturbed[0]:
        sketch[answer.level] = 0
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_union(answer, perturbed, 0.1, "A")


def test_witness_check_accepts_the_program_and_rejects_perturbations(fed):
    engine, _ = fed
    answer = engine.query("A - B", 0.1)
    assert answer.num_valid > 0
    oracle.check_witness(answer, SPEC.num_sketches, "A - B")
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_witness(
            dataclasses.replace(answer, value=answer.value + 1.0),
            SPEC.num_sketches, "A - B")
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_witness(
            dataclasses.replace(answer, num_witnesses=answer.num_valid + 1),
            SPEC.num_sketches, "A - B")
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_witness(answer, answer.num_valid - 1, "A - B")


def test_self_times_partition_nested_spans():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer.sync("inner", inner)
    wrapped_outer = tracer.sync("outer", outer)
    started = time.perf_counter()
    wrapped_outer()
    wall = time.perf_counter() - started
    outer_index, inner_index = 0, 1
    assert tracer.parent[inner_index] == outer_index
    assert tracer.self_time[inner_index] >= 0.02
    assert 0.01 <= tracer.self_time[outer_index] < tracer.self_time[inner_index]
    assert sum(tracer.self_time) <= wall


def test_async_spans_stay_out_of_self_time_but_parent_sync_spans():
    tracer = tracing.Tracer()
    work = tracer.sync("work", lambda: time.sleep(0.005))

    async def ship():
        await asyncio.sleep(0.01)
        work()

    asyncio.run(tracer.coroutine("ship", ship)())
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["ship", "work"]
    assert tracer.is_async.tolist() == [1, 0]
    assert tracer.parent[1] == 0
    assert tracer.self_time[0] >= 0.015


def test_summarize_counts_only_the_timed_window(tmp_path):
    tracer = tracing.Tracer()
    step = tracer.sync("plan", lambda: time.sleep(0.002))
    step()
    lo = time.perf_counter()
    step()
    hi = time.perf_counter()
    step()
    path = tmp_path / "spans.json"
    tracer.save(str(path), (lo, hi))
    summary = tracing.summarize(str(path))
    assert summary["spans"] == 1
    assert 0 < summary["self"]["plan"] <= hi - lo
    assert 0.5 < summary["coverage"] <= 1.0


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    summary = {"self": dict.fromkeys(tracing.LAYERS, 0.0), "async": {},
               "wall": 1.0, "coverage": 1.0, "spans": 0, "drains": []}
    result = {
        "trace_counts": {},
        "metrics": {"updates_per_s": 1.0},
        "layer": dict.fromkeys((
            "plan.lru_hit_rate", "plan.evictions", "engine.cache_hit_rate",
            "estimators.union_ratio", "codec.wire_bytes",
            "codec.compression_ratio"), 0),
    }
    values = run.layer_metrics(result, summary, 0.0)
    assert {name: run.layer_unit(name) for name in values} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }


def test_queue_wait_subtracts_the_answering_drain():
    import run

    requests = [(0.0, 0.010), (0.020, 0.050)]
    drains = [(0.001, 0.004), (0.030, 0.040)]
    # 10 ms - 3 ms and 30 ms - 10 ms: median 13.5 ms.
    assert run.queue_wait_ms(requests, drains) == pytest.approx(13.5)


def test_probe_expectation_rejects_an_answer_from_a_nonempty_window():
    levels = SPEC.build().counters.shape[1]
    empty = oracle.union_estimate([[[0] * levels] * SPEC.num_sketches], 0.1)
    assert empty == {"value": 0.0, "level": 0}
    engine = StreamEngine(SPEC, window_span=4.0, bucket_width=1.0)
    engine.observe_many([(Update("P", key, 1), 0.0) for key in range(1, 513)])
    answer = engine.query_union(["P"], 0.1, window=1.0)
    ring = engine.window_family("P", 1.0)
    oracle.check_union(answer, [oracle.level_totals(ring.counters)], 0.1, "P")
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_estimate(answer, empty, "P")
