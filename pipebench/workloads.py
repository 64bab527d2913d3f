"""One workload of the pipeline benchmark, in its own fresh process.

``run.py`` starts this file once per measured run (and a few more times
with ``--setup-only`` to sample set-up time).  It prints one JSON object
as its last line of output.

Set-up time runs from just before ``import repro`` until the system is
ready for its first operation, so nothing above :func:`main` may import
``repro`` or numpy.  The inputs are made after set-up, from ``--seed``
only; the program never sees the seed.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import pathlib
import random
import resource
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402  (stdlib-only; safe before the set-up clock)
import tracer as tracing  # noqa: E402

STREAMS = ("A", "B", "C")
EPSILON = 0.1
#: The coins are a fixed part of the system under test; ``--seed``
#: drives only the inputs (and which sketch indices the oracle samples).
COINS = 2003


def build_spec(num_sketches: int):
    from repro.core.family import SketchSpec
    from repro.core.sketch import SketchShape

    shape = SketchShape(domain_bits=24, num_second_level=16, independence=8)
    return SketchSpec(num_sketches=num_sketches, shape=shape, seed=COINS)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def zipf_sampler(np, rng, pool, exponent: float):
    """Draw keys from ``pool`` with rank probabilities ``~ 1/k**exponent``."""
    weights = 1.0 / np.arange(1, pool.size + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    def draw(count: int):
        ranks = np.searchsorted(cdf, rng.random(count), side="right")
        return pool[np.minimum(ranks, pool.size - 1)]

    return draw


def distinct_keys(np, rng, count: int, domain: int):
    """``count`` distinct uniform keys of ``[0, domain)``, in random order."""
    keys = np.unique(rng.integers(0, domain, size=count + count // 8 + 64))
    while keys.size < count:
        more = rng.integers(0, domain, size=count)
        keys = np.unique(np.concatenate([keys, more]))
    return rng.permutation(keys)[:count]


def site_wire_bytes(spec, updates) -> dict:
    """What a site sends for ``updates``, made by the program's own site
    path: a fresh ``StreamSite`` observes them, ``export`` diffs its
    counters, and ``delta_message`` encodes the delta for the wire.

    For the workloads that have no ingest wire of their own."""
    from repro.streams.distributed import StreamSite
    from repro.streams.net import codec, protocol

    site = StreamSite("wire-probe", spec)
    site.observe_many(updates)
    export = site.export()
    header, blobs = protocol.delta_message(export, codec.PREFERRED_ENCODINGS)
    return {
        "message": len(protocol.encode_message(header, blobs)),
        "wire": sum(len(blob) for blob in blobs),
        "dense": sum(len(payload) for payload in export.payloads.values()),
    }


def generator_span(tracer):
    """A span for the benchmark's own input generation inside a run."""
    return tracer.span("bench.generator") if tracer else contextlib.nullcontext()


def begin_window(tracer) -> float:
    """Start the timed window; counts made before it are dropped."""
    if tracer is not None:
        tracer.counts.clear()
    return time.perf_counter()


def end_window(tracer, start: float) -> tuple[float, dict]:
    """Close the timed window: its wall time and the counts made in it."""
    wall = time.perf_counter() - start
    return wall, dict(tracer.counts) if tracer is not None else {}


class Checks:
    """Collects check failures instead of stopping at the first one."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.made = 0

    def run(self, label: str, fn, *args) -> None:
        self.made += 1
        try:
            fn(*args)
        except oracle.OracleMismatch as exc:
            self.errors.append(str(exc))
        except Exception as exc:  # a crashing check is a failed check
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def require(self, condition: bool, message: str) -> None:
        self.made += 1
        if not condition:
            self.errors.append(message)


def check_sketches(checks, hashes, families, frequencies, seed, label, per_stream=2):
    """Oracle counters for a seeded sample of sketch indices per stream."""
    for name in sorted(frequencies):
        family = families.get(name)
        if family is None:
            checks.errors.append(f"{label}: stream {name} has no synopsis")
            continue
        indices = oracle.sample_indices(
            family.num_sketches, per_stream, (seed, label, name)
        )
        checks.run(
            label, oracle.check_counters, hashes, family.counters,
            frequencies[name], indices, f"{label} stream {name}",
        )


def check_answers(checks, families, unions, label):
    """Union answers against the oracle's level scan over ``families``."""
    totals = {name: oracle.level_totals(family.counters)
              for name, family in families.items()}
    for streams, answer in unions:
        checks.run(label, oracle.check_union, answer,
                   [totals[name] for name in streams], EPSILON,
                   f"{label} union {'|'.join(streams)}")


# -- ingest-zipf --------------------------------------------------------------

ZIPF_KEYS = 200_000
ZIPF_UPDATES = 600_000
ZIPF_SLICE = 30_000
ZIPF_DELETE_SHARE = 0.3
ZIPF_UNIONS = (("A", "B", "C"), ("A", "B"), ("C",))
ZIPF_EXPRESSIONS = ("A & B", "(A - B) & C", "(A | B) - C")


def zipf_updates(np, seed: int):
    """600k legal updates over 3 streams, Zipf(1.2) over 200k keys, 30%
    deletions of live elements; returned as 30k-update slices with the
    net frequencies each slice adds."""
    from repro.streams.updates import Update

    rng = np.random.default_rng([seed, 1])
    pool = distinct_keys(np, rng, ZIPF_KEYS, 1 << 24)
    draw = zipf_sampler(np, rng, pool, 1.2)
    keys = draw(ZIPF_UPDATES).tolist()
    streams = rng.integers(0, len(STREAMS), size=ZIPF_UPDATES).tolist()
    deletes = (rng.random(ZIPF_UPDATES) < ZIPF_DELETE_SHARE).tolist()
    picks = rng.random(ZIPF_UPDATES).tolist()
    live = {name: {} for name in STREAMS}
    live_list = {name: [] for name in STREAMS}
    where = {name: {} for name in STREAMS}
    slices, nets = [], []
    updates, net = [], {name: {} for name in STREAMS}
    for key, stream_index, delete, pick in zip(keys, streams, deletes, picks):
        name = STREAMS[stream_index]
        counts, members, position = live[name], live_list[name], where[name]
        delta = 1
        if delete and members:
            if counts.get(key, 0) <= 0:
                key = members[int(pick * len(members))]
            delta = -1
        after = counts.get(key, 0) + delta
        counts[key] = after
        if delta > 0 and after == 1:
            position[key] = len(members)
            members.append(key)
        elif after == 0:
            slot = position.pop(key)
            last = members.pop()
            if slot < len(members):
                members[slot] = last
                position[last] = slot
        updates.append(Update(name, key, delta))
        tally = net[name]
        tally[key] = tally.get(key, 0) + delta
        if len(updates) == ZIPF_SLICE:
            slices.append(updates)
            nets.append(net)
            updates, net = [], {name: {} for name in STREAMS}
    return slices, nets


def run_ingest_zipf(args, clock0: float, tracer) -> dict:
    from repro.streams.engine import StreamEngine

    spec = build_spec(64)
    engine = StreamEngine(spec)
    setup_s = time.perf_counter() - clock0
    if args.setup_only:
        return {"setup_s": setup_s}

    import numpy as np

    slices, nets = zipf_updates(np, args.seed)
    plan_before = engine.plan_stats()
    processed = [0] * len(slices)
    freshness, latencies, answers = [], [], []
    attempted = failed = 0
    start = begin_window(tracer)
    round_id = 0
    while time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.round_id = round_id
        index = round_id % len(slices)
        engine.process_many(slices[index])
        handed = time.perf_counter()
        processed[index] += 1
        attempted += 1
        engine.flush()
        round_answers = {"unions": [], "witnesses": []}
        first = True
        for streams in ZIPF_UNIONS:
            attempted += 1
            began = time.perf_counter()
            try:
                answer = engine.query_union(streams, EPSILON)
            except Exception:
                failed += 1
                continue
            done = time.perf_counter()
            latencies.append(done - began)
            if first:
                freshness.append(done - handed)
                first = False
            round_answers["unions"].append((streams, answer))
        for text in ZIPF_EXPRESSIONS:
            attempted += 1
            began = time.perf_counter()
            try:
                answer = engine.query(text, EPSILON)
            except Exception:
                failed += 1
                continue
            latencies.append(time.perf_counter() - began)
            streams = tuple(sorted(set(text) & set(STREAMS)))
            round_answers["witnesses"].append((streams, answer))
        answers.append(round_answers)
        round_id += 1
    wall, counts = end_window(tracer, start)
    rss = peak_rss_mib()
    window = (start, start + wall)

    updates = sum(processed) * ZIPF_SLICE
    plan_after = engine.plan_stats()
    query_stats = engine.query_stats()
    families = engine.families()
    sent = site_wire_bytes(spec, slices[0])

    checks = Checks()
    frequencies = {name: {} for name in STREAMS}
    for count, net in zip(processed, nets):
        if not count:
            continue
        for name, tally in net.items():
            target = frequencies[name]
            for key, delta in tally.items():
                target[key] = target.get(key, 0) + count * delta
    for name in STREAMS:
        checks.require(
            all(value >= 0 for value in frequencies[name].values()),
            f"generator made an illegal deletion in stream {name}",
        )
    check_sketches(checks, spec.hashes(), families, frequencies, args.seed,
                   "ingest-zipf")
    for round_answers in answers:
        for streams, answer in round_answers["witnesses"]:
            checks.run("ingest-zipf", oracle.check_witness, answer,
                       spec.num_sketches, f"ingest-zipf {streams}")
    last = answers[-1]
    check_answers(checks, families, last["unions"], "ingest-zipf final")
    check_witness_unions(checks, families, last["witnesses"], "ingest-zipf final")

    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "checks": checks.made,
        "errors": checks.errors,
        "window": window,
        "trace_counts": counts,
        "metrics": {
            "updates_per_s": updates / wall,
            "freshness_p50_ms": 1000 * percentile(freshness, 50),
            "freshness_p90_ms": 1000 * percentile(freshness, 90),
            "query_p50_ms": 1000 * percentile(latencies, 50),
            "query_p90_ms": 1000 * percentile(latencies, 90),
            "queries_per_s": len(latencies) / wall,
            "wire_bytes_per_update": sent["message"] / ZIPF_SLICE,
            "peak_rss_mib": rss,
        },
        "samples": {"rounds": round_id, "queries": len(latencies),
                    "freshness": len(freshness), "updates": updates},
        "layer": {
            **plan_layer(plan_before, plan_after),
            **query_layer(query_stats),
            "estimators.union_ratio": union_ratio(last["unions"][0][1],
                                                  frequencies),
            "codec.wire_bytes": sent["wire"],
            "codec.compression_ratio": sent["dense"] / sent["wire"],
        },
    }
    return result


def check_witness_unions(checks, families, witnesses, label) -> None:
    """The union part of each expression answer (computed at ε/3) must
    equal the oracle's union estimate over the same streams."""
    totals = {name: oracle.level_totals(family.counters)
              for name, family in families.items()}
    for streams, answer in witnesses:
        expected = oracle.union_estimate([totals[name] for name in streams],
                                         EPSILON / 3.0)
        checks.require(
            math.isclose(answer.union_estimate, expected["value"],
                         rel_tol=1e-12, abs_tol=1e-12),
            f"{label}: union part {answer.union_estimate!r} of an expression "
            f"over {streams} != oracle {expected['value']!r}",
        )


def union_ratio(answer, frequencies) -> float:
    """An all-stream union estimate over the exact distinct count.

    Reported, not gated: at these synopsis sizes the estimators are
    loose (see the README)."""
    exact = len({key for tally in frequencies.values()
                 for key, count in tally.items() if count > 0})
    return answer.value / exact if exact else 0.0


def plan_layer(before, after) -> dict:
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {
        "plan.lru_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "plan.evictions": after.evictions - before.evictions,
    }


def query_layer(stats) -> dict:
    """The query cache's share of answers.  ``stats`` is None for a
    target with no query cache (the default root's plain family map),
    which answers every query afresh."""
    if stats is None:
        return {"engine.cache_hit_rate": 0.0}
    served = (stats.cache_hits + stats.revalidations
              + stats.union_cache_hits + stats.union_revalidations)
    asked = stats.queries + stats.union_queries
    return {"engine.cache_hit_rate": served / asked if asked else 0.0}


# -- tree-uniform ---------------------------------------------------------------

TREE_KEYS_PER_ROUND = 64  # per stream, per site
TREE_CHECKPOINT_EVERY = 5  # root checkpoint every this many applied deltas
TREE_EXPRESSION = "(A - B) & C"


async def tree_setup(spec, tmp: str, seed: int):
    from repro.streams.net.coordinator import CoordinatorServer
    from repro.streams.net.site import SiteClient

    root = CoordinatorServer(
        spec,
        checkpoint_dir=tempfile.mkdtemp(prefix="root-checkpoint-", dir=tmp),
        checkpoint_every=TREE_CHECKPOINT_EVERY,
    )
    await root.start()
    leaf = CoordinatorServer(spec, parent_port=root.port, uplink_id="leaf-0")
    await leaf.start()
    await leaf.uplink.connect()
    sites = [
        SiteClient(site_id=f"site-{i}", spec=spec, port=leaf.port,
                   rng=random.Random(seed * 2 + i))
        for i in range(2)
    ]
    for site in sites:
        await site.connect()
    return root, leaf, sites


async def tree_teardown(root, leaf, sites) -> None:
    for site in sites:
        await site.close()
    await leaf.stop()
    await root.stop()


def run_tree_uniform(args, clock0: float, tracer) -> dict:
    return asyncio.run(_tree_uniform(args, clock0, tracer))


async def _tree_uniform(args, clock0: float, tracer) -> dict:
    from repro.core.plan import plan_for
    from repro.streams.engine import StreamEngine
    from repro.streams.updates import Update

    spec = build_spec(64)
    root, leaf, sites = await tree_setup(spec, args.tmp, args.seed)
    setup_s = time.perf_counter() - clock0
    if args.setup_only:
        await tree_teardown(root, leaf, sites)
        return {"setup_s": setup_s}

    import numpy as np

    rng = np.random.default_rng([args.seed, 2])
    seen: set[int] = set()
    per_round = TREE_KEYS_PER_ROUND * len(STREAMS)
    plan_before = plan_for(spec).stats()
    uplink = leaf.uplink
    history = []  # per round: [site0 keys per stream, site1 keys per stream]
    freshness, latencies, answers = [], [], []
    attempted = failed = unfolded = 0
    checkpoints_before = root.checkpoints_written
    start = begin_window(tracer)
    round_id = 0
    while time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.round_id = round_id
        with generator_span(tracer):
            batches = []
            for _ in sites:
                fresh = []
                while len(fresh) < per_round:
                    for key in rng.integers(0, 1 << 24, size=per_round).tolist():
                        if key not in seen and len(fresh) < per_round:
                            seen.add(key)
                            fresh.append(key)
                batches.append([
                    Update(STREAMS[i // TREE_KEYS_PER_ROUND], key, 1)
                    for i, key in enumerate(fresh)
                ])
        for site, batch in zip(sites, batches):
            site.observe_many(batch)
        handed = time.perf_counter()
        history.append(batches)
        attempted += 1
        try:
            await asyncio.gather(*(site.ship() for site in sites))
            await leaf.ship_upstream()
            folded = root.coordinator.applied_sequence(
                uplink.site.site_id, uplink.site.incarnation
            )
            if folded != uplink.site.sequence:
                unfolded += 1
                continue
            began = time.perf_counter()
            answer = root.query(TREE_EXPRESSION, EPSILON)
        except Exception:
            failed += 1
            continue
        finally:
            round_id += 1
        done = time.perf_counter()
        latencies.append(done - began)
        freshness.append(done - handed)
        answers.append(answer)
    wall, counts = end_window(tracer, start)
    rss = peak_rss_mib()
    window = (start, start + wall)

    rounds = len(history)
    updates = rounds * per_round * len(sites)
    transport = [site.stats.snapshot() for site in sites]
    transport.append(leaf.uplink_stats())
    wire_sent = sum(stats.bytes_sent for stats in transport)
    payload_wire = sum(stats.payload_bytes_wire for stats in transport)
    payload_dense = sum(stats.payload_bytes_dense for stats in transport)
    retries = sum(stats.retries for stats in transport)
    checkpoints = root.checkpoints_written - checkpoints_before
    plan_after = plan_for(spec).stats()
    fold = root.coordinator.fold_engine

    checks = Checks()
    root_families = root.coordinator.families()
    flat = StreamEngine(spec)
    frequencies = {name: {} for name in STREAMS}
    for batches in history:
        for batch in batches:
            flat.process_many(batch)
            for update in batch:
                tally = frequencies[update.stream]
                tally[update.element] = tally.get(update.element, 0) + 1
    flat_families = flat.families()
    for name in STREAMS:
        checks.require(
            name in root_families
            and np.array_equal(root_families[name].counters,
                               flat_families[name].counters),
            f"tree-uniform: root counters of {name} differ from a flat engine",
        )
    check_sketches(checks, spec.hashes(), root_families, frequencies,
                   args.seed, "tree-uniform")
    for answer in answers:
        checks.run("tree-uniform", oracle.check_witness, answer,
                   spec.num_sketches, "tree-uniform root answer")
    if answers:
        check_witness_unions(checks, root_families,
                             [(tuple(STREAMS), answers[-1])], "tree-uniform final")
    checks.require(unfolded == 0,
                   f"tree-uniform: {unfolded} rounds not folded in at the root "
                   f"after ship_upstream returned")
    checks.require(checkpoints * 10 > rounds,
                   f"tree-uniform: {checkpoints} checkpoints in {rounds} rounds")
    accuracy = union_ratio(root.query_union(STREAMS, EPSILON), frequencies)
    await tree_teardown(root, leaf, sites)

    return {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "checks": checks.made,
        "errors": checks.errors,
        "window": window,
        "trace_counts": counts,
        "metrics": {
            "updates_per_s": updates / wall,
            "freshness_p50_ms": 1000 * percentile(freshness, 50),
            "freshness_p90_ms": 1000 * percentile(freshness, 90),
            "query_p50_ms": 1000 * percentile(latencies, 50),
            "query_p90_ms": 1000 * percentile(latencies, 90),
            "queries_per_s": len(latencies) / wall,
            "wire_bytes_per_update": wire_sent / updates,
            "peak_rss_mib": rss,
        },
        "samples": {"rounds": rounds, "queries": len(latencies),
                    "freshness": len(freshness), "updates": updates,
                    "checkpoints": checkpoints},
        "layer": {
            **plan_layer(plan_before, plan_after),
            **query_layer(fold.query_stats() if fold is not None else None),
            "estimators.union_ratio": accuracy,
            "codec.wire_bytes": payload_wire,
            "codec.compression_ratio": (
                payload_dense / payload_wire if payload_wire else 0.0
            ),
            "site.retries": retries,
        },
    }


# -- serve-windowed -------------------------------------------------------------

SERVE_KEYS = 50_000
SERVE_TICK = 192  # updates per tick
SERVE_BUCKET = 8.0  # ticks per bucket
SERVE_SPAN = 4 * SERVE_BUCKET
SERVE_ROUND_TICKS = 4  # ticks the ingest loop observes per round
#: (kind, expression text or union streams, window) — all-time
#: expressions, windowed expressions and windowed unions.
SERVE_QUERIES = (
    ("expression", "A & B", None),
    ("union", ("A", "B", "C"), SERVE_SPAN),
    ("expression", "(A - B) & C", SERVE_SPAN),
    ("expression", "(A | B) - C", None),
    ("union", ("A", "B"), SERVE_SPAN),
    ("expression", "A - C", SERVE_SPAN),
)
#: The sub-window probe: a union over the newest bucket of stream P.
#: P holds a fixed set of keys stamped into bucket 0, before the first
#: tick, and nothing after; the ticks start in bucket 1.  So in the
#: timed run the newest bucket never holds a P update and the right
#: answer is the estimate of an empty synopsis.  The engine's query
#: cache answers it from the sub-window synopsis memoised while bucket 0
#: was the newest (see the README), so every probe fails, on every seed.
PROBE = ("union", ("P",), SERVE_BUCKET)
PROBE_KEYS = 512


async def serve_setup(spec):
    from repro.streams.engine import StreamEngine
    from repro.streams.serving import QueryClient, QueryServer

    engine = StreamEngine(spec, window_span=SERVE_SPAN, bucket_width=SERVE_BUCKET)
    server = QueryServer(engine)
    await server.start()
    clients = [QueryClient("127.0.0.1", server.port, client_id=f"client-{i}")
               for i in range(2)]
    for client in clients:
        await client.connect()
    return engine, server, clients


async def serve_teardown(server, clients) -> None:
    for client in clients:
        await client.close()
    await server.stop()


async def ask(client, query):
    kind, what, window = query
    if kind == "union":
        return await client.query_union(list(what), EPSILON, window=window)
    return await client.query(what, EPSILON, window=window)


def ask_engine(engine, query):
    kind, what, window = query
    if kind == "union":
        return engine.query_union(list(what), EPSILON, window=window)
    return engine.query(what, EPSILON, window=window)


def query_streams(query) -> tuple:
    kind, what, _ = query
    if kind == "union":
        return tuple(sorted(what))
    return tuple(sorted(set(what) & set(STREAMS)))


def run_serve_windowed(args, clock0: float, tracer) -> dict:
    return asyncio.run(_serve_windowed(args, clock0, tracer))


async def _serve_windowed(args, clock0: float, tracer) -> dict:
    from repro.streams.updates import Update

    spec = build_spec(128)
    engine, server, clients = await serve_setup(spec)
    setup_s = time.perf_counter() - clock0
    if args.setup_only:
        await serve_teardown(server, clients)
        return {"setup_s": setup_s}

    import numpy as np

    checks = Checks()
    # The probe's stream, from fixed keys; its first answer is right.
    engine.observe_many([(Update("P", key, 1), 0.0)
                         for key in range(1, PROBE_KEYS + 1)])
    engine.advance_to(0.0)
    warm = await ask(clients[0], PROBE)
    checks.run("serve-windowed", oracle.check_union, warm,
               [oracle.level_totals(engine.window_family("P", SERVE_BUCKET)
                                    .counters)],
               EPSILON, "serve-windowed probe before the ticks")
    levels = engine.window_family("P").counters.shape[1]
    empty = oracle.union_estimate([[[0] * levels] * spec.num_sketches], EPSILON)

    rng = np.random.default_rng([args.seed, 3])
    pool = distinct_keys(np, rng, SERVE_KEYS, 1 << 24)
    draw = zipf_sampler(np, rng, pool, 1.2)
    ticks = []  # (updates processed after the tick, hand-off time)
    tick_keys = []  # (stream indices, keys, timestamp) per tick, for the oracle
    served = []  # (send time, receive time, position, query, answer)
    latencies = []
    last_positions = [None, None]
    positions_ok = [True, True]
    cursors = [0, len(SERVE_QUERIES) // 2]
    state = {"failed": 0, "attempted": 0, "tick": 0, "probe_answer": None}
    last_round = []  # the updates of the last round, for the wire probe
    plan_before = engine.plan_stats()

    async def ingest_round() -> None:
        last_round.clear()
        for _ in range(SERVE_ROUND_TICKS):
            state["tick"] += 1
            if tracer:
                tracer.round_id = state["tick"]
            with generator_span(tracer):
                keys = draw(SERVE_TICK)
                streams = rng.integers(0, len(STREAMS), size=SERVE_TICK)
                at = SERVE_BUCKET + state["tick"]
                pairs = [
                    (Update(STREAMS[s], key, 1), at)
                    for s, key in zip(streams.tolist(), keys.tolist())
                ]
            state["attempted"] += 1
            try:
                engine.observe_many(pairs)
                engine.advance_to(at)
            except Exception:
                state["failed"] += 1
            ticks.append((engine.updates_processed, time.perf_counter()))
            tick_keys.append((streams, keys, at))
            last_round.extend(update for update, _ in pairs)
            await asyncio.sleep(0)

    async def record(index: int, query) -> object:
        """Ask one query; returns its answer, or None when it raised.

        Only answers that can be right count toward the latency and
        query-rate figures: the probe's are counted as failed."""
        client = clients[index]
        state["attempted"] += 1
        began = time.perf_counter()
        try:
            answer = await ask(client, query)
        except Exception:
            state["failed"] += 1
            return None
        done = time.perf_counter()
        if query is not PROBE:
            latencies.append(done - began)
        position = client.last_position
        last = last_positions[index]
        if last is not None and position < last:
            positions_ok[index] = False
        last_positions[index] = position
        served.append((began, done, position, query, answer))
        return answer

    async def client_round(index: int) -> None:
        """The client's next query; client 0 then asks the probe."""
        query = SERVE_QUERIES[cursors[index] % len(SERVE_QUERIES)]
        cursors[index] += 1
        await record(index, query)
        if index == 0:
            answer = await record(index, PROBE)
            if answer is None:
                return
            try:
                oracle.check_estimate(answer, empty, "probe")
            except oracle.OracleMismatch:
                state["failed"] += 1
                state["probe_answer"] = answer.value

    start = begin_window(tracer)
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        await asyncio.gather(ingest_round(), client_round(0), client_round(1))
    wall, counts = end_window(tracer, start)
    rss = peak_rss_mib()
    window = (start, start + wall)

    updates = engine.updates_processed - PROBE_KEYS
    freshness = []
    served_by_time = sorted(served, key=lambda item: item[1])
    cursor = 0
    for _, done, position, _, _ in served_by_time:
        while cursor < len(ticks) and ticks[cursor][0] <= position[0]:
            freshness.append(done - ticks[cursor][1])
            cursor += 1
    plan_after = engine.plan_stats()
    query_stats = engine.query_stats()
    window_stats = engine.window_stats()
    serving_stats = list(server.stats().values())
    plan_cache = server.plans

    checks.require(all(positions_ok),
                   "serve-windowed: a client saw its snapshot position go back")
    for _, _, _, query, answer in served:
        if query[0] == "expression":
            checks.run("serve-windowed", oracle.check_witness, answer,
                       spec.num_sketches, f"serve-windowed {query}")
    # Quiesced: served answers must equal the engine's direct answers,
    # and both must pass the oracle over the counters they came from.
    # The probe is left out: it failed in every round and is counted.
    quiesced = []
    for query in SERVE_QUERIES:
        answer = await ask(clients[0], query)
        direct = ask_engine(engine, query)
        checks.require(answer == direct,
                       f"serve-windowed: served {answer} != direct {direct}")
        quiesced.append((query, answer))
    for query, answer in quiesced:
        names = query_streams(query)
        window_span = query[2]
        families = {
            name: engine.window_family(name, window_span)
            if window_span is not None else engine.family(name)
            for name in names
        }
        if query[0] == "union":
            check_answers(checks, families, [(names, answer)],
                          "serve-windowed quiesced")
        else:
            check_witness_unions(checks, families, [(names, answer)],
                                 f"serve-windowed quiesced {query}")
    # At the next bucket boundary the rings hold exactly the updates
    # stamped inside the window; all time holds every update.
    last_at = tick_keys[-1][2]
    boundary = math.ceil(last_at / SERVE_BUCKET) * SERVE_BUCKET
    engine.advance_to(boundary)
    in_window = {name: {} for name in STREAMS}
    all_time = {name: {} for name in STREAMS}
    for streams, keys, at in tick_keys:
        inside = boundary - SERVE_SPAN < at <= boundary
        for s, key in zip(streams.tolist(), keys.tolist()):
            tally = all_time[STREAMS[s]]
            tally[key] = tally.get(key, 0) + 1
            if inside:
                tally = in_window[STREAMS[s]]
                tally[key] = tally.get(key, 0) + 1
    hashes = spec.hashes()
    rings = {name: engine.window_family(name) for name in STREAMS}
    check_sketches(checks, hashes, rings, in_window, args.seed,
                   "serve-windowed ring", per_stream=2)
    check_sketches(checks, hashes, engine.families(), all_time, args.seed,
                   "serve-windowed all-time", per_stream=1)
    sent = site_wire_bytes(spec, last_round)
    accuracy = union_ratio(engine.query_union(STREAMS, EPSILON), all_time)
    await serve_teardown(server, clients)

    queries = sum(stats.queries for stats in serving_stats)
    batched = sum(stats.batched_queries for stats in serving_stats)
    parses_hits = plan_cache.parses + plan_cache.hits
    return {
        "setup_s": setup_s,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "checks": checks.made,
        "errors": checks.errors,
        "window": window,
        "trace_counts": counts,
        "metrics": {
            "updates_per_s": updates / wall,
            "freshness_p50_ms": 1000 * percentile(freshness, 50),
            "freshness_p90_ms": 1000 * percentile(freshness, 90),
            "query_p50_ms": 1000 * percentile(latencies, 50),
            "query_p90_ms": 1000 * percentile(latencies, 90),
            "queries_per_s": len(latencies) / wall,
            "wire_bytes_per_update": sent["message"] / len(last_round),
            "peak_rss_mib": rss,
        },
        "samples": {"ticks": len(ticks), "queries": len(latencies),
                    "freshness": len(freshness), "updates": updates,
                    "probe": {"served": state["probe_answer"],
                              "warm": warm.value}},
        "layer": {
            **plan_layer(plan_before, plan_after),
            **query_layer(query_stats),
            "estimators.union_ratio": accuracy,
            "windows.subwindow_rebuilds": window_stats.subwindow_rebuilds,
            "windows.buckets_expired": window_stats.buckets_expired,
            "serving.plan_hit_rate": (
                plan_cache.hits / parses_hits if parses_hits else 0.0
            ),
            "serving.batched_share": batched / queries if queries else 0.0,
            "codec.wire_bytes": sent["wire"],
            "codec.compression_ratio": sent["dense"] / sent["wire"],
        },
        "requests": [(began, done) for began, done, _, _, _ in served],
    }


WORKLOADS = {
    "ingest-zipf": run_ingest_zipf,
    "tree-uniform": run_tree_uniform,
    "serve-windowed": run_serve_windowed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", help="write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    clock0 = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = WORKLOADS[args.workload](args, clock0, tracer)
    if tracer is not None and not args.setup_only:
        tracer.save(args.trace, tuple(result["window"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
