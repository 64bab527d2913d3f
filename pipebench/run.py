"""Pipeline benchmark: ingest, federated-tree freshness and windowed serving.

Run from the root of a checkout::

    python3 pipebench/run.py --workload ingest-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes an
untraced and a traced run and reports the per-layer metrics, the share
of wall time the layers account for and the tracing overhead.  The last
line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command exits 1 when a check fails and
2 when the program cannot be run at all.

``--repeat N`` runs each workload (or ``--workload all``) N times with
seeds ``seed .. seed+N-1`` and prints the median and quartiles of every
end-to-end metric.

Every workload runs in a fresh process under a wall-clock limit, so a
hung socket fails the run instead of hanging it.  Servers bind to
ephemeral ports on 127.0.0.1; files go to a temporary directory under
``.pipebench_tmp/`` in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

WORKLOADS = ("ingest-zipf", "tree-uniform", "serve-windowed")
#: Extra fresh processes that only set up, for the median ``setup_s``.
SETUP_PROBES = 6
#: Whole invocation budget, seconds (the harness allows 180).
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "updates/s",
    "peak_rss_mib": "MiB",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
    "wire_bytes_per_update": "bytes/update",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "queries/s",
}


class RunFailed(Exception):
    """A workload process crashed, timed out or printed no result."""


def child(workload: str, seed: int, seconds: float, tmp: str,
          deadline: float, *extra: str) -> dict:
    """Run one workload process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise RunFailed(f"{workload}: out of time before starting a process")
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--tmp", tmp, *extra,
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: killed after {remaining:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise RunFailed(f"{workload}: exit {done.returncode}\n{tail}")
    return json.loads(lines[-1])


def layer_metrics(result: dict, summary: dict, overhead_pct: float) -> dict:
    """The per-layer metrics of one traced run."""
    own = summary["self"]
    counts = result["trace_counts"]
    spent_in = counts.get("family.ingest_in", 0)
    layer = dict(result["layer"])
    values = {
        "hashing.self_s": own["hashing"],
        "hashing.element_hashes": counts.get("hashing.element_hashes", 0),
        "plan.self_s": own["plan"],
        "plan.lru_hit_rate": layer.pop("plan.lru_hit_rate"),
        "plan.evictions": layer.pop("plan.evictions"),
        "family.self_s": own["family"],
        "family.aggregation_ratio": (
            counts.get("family.ingest_out", 0) / spent_in if spent_in else 0.0
        ),
        "engine.ingest_self_s": own["engine.ingest"],
        "engine.query_self_s": own["engine.query"],
        "engine.cache_hit_rate": layer.pop("engine.cache_hit_rate"),
        "estimators.self_s": own["estimators"],
        "estimators.calls": counts.get("estimators.calls", 0),
        "estimators.union_ratio": layer.pop("estimators.union_ratio"),
        "windows.self_s": own["windows"],
        "windows.subwindow_rebuilds": layer.pop("windows.subwindow_rebuilds", 0),
        "windows.buckets_expired": layer.pop("windows.buckets_expired", 0),
        "serving.drain_self_s": own["serving.drain"],
        "serving.session_self_s": own["serving.session"],
        "serving.queue_wait_ms": queue_wait_ms(result.get("requests", []),
                                               summary["drains"]),
        "serving.plan_hit_rate": layer.pop("serving.plan_hit_rate", 0.0),
        "serving.batched_share": layer.pop("serving.batched_share", 0.0),
        "distributed.export_self_s": own["distributed.export"],
        "distributed.collect_self_s": own["distributed.collect"],
        "distributed.query_self_s": own["distributed.query"],
        "codec.encode_self_s": own["codec.encode"],
        "codec.decode_self_s": own["codec.decode"],
        "codec.wire_bytes": layer.pop("codec.wire_bytes"),
        "codec.compression_ratio": layer.pop("codec.compression_ratio"),
        "protocol.self_s": own["protocol"],
        "protocol.frames": counts.get("protocol.frames", 0),
        "site.ship_s": summary["async"].get("site.ship", 0.0),
        "site.retries": layer.pop("site.retries", 0),
        "coordinator.uplink_s": summary["async"].get("coordinator.uplink", 0.0),
        "checkpoint.self_s": own["checkpoint"],
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "bench.generator_s": own["bench.generator"],
        "trace.wall_s": summary["wall"],
        "trace.coverage": summary["coverage"],
        "trace.spans": summary["spans"],
        "trace.overhead_pct": overhead_pct,
    }
    if layer:
        raise RunFailed(f"unreported layer counters: {sorted(layer)}")
    return values


PER_LAYER_UNITS = {
    "element_hashes": "count", "evictions": "count", "calls": "count",
    "subwindow_rebuilds": "count", "buckets_expired": "count",
    "frames": "count", "retries": "count", "spans": "count",
    "wire_bytes": "bytes", "bytes": "bytes", "queue_wait_ms": "ms",
    "overhead_pct": "%",
}


def layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    return PER_LAYER_UNITS.get(suffix, "ratio")


def queue_wait_ms(requests: list, drains: list) -> float:
    """Median of client latency minus the drain that answered it, in ms.

    A request is answered by the first drain that starts after it was
    sent and ends before its answer arrived.
    """
    drains = sorted(drains)
    waits = []
    cursor = 0
    for sent, received in sorted(requests):
        while cursor < len(drains) and drains[cursor][0] < sent:
            cursor += 1
        for start, end in drains[cursor:]:
            if end > received:
                break
            if start >= sent:
                waits.append((received - sent) - (end - start))
                break
    return 1000.0 * statistics.median(waits) if waits else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp: str, deadline: float) -> dict:
    """One benchmark run: the result object the last output line holds."""
    if trace:
        # Untraced, traced, traced, untraced: the order cancels a steady
        # drift of the machine's speed out of the tracing overhead.  The
        # layer figures come from the first traced run.
        trace_path = str(pathlib.Path(tmp) / "spans.json")
        runs = [child(workload, seed, seconds, tmp, deadline, *extra)
                for extra in ((), ("--trace", trace_path),
                              ("--trace", trace_path + ".2"), ())]
        result = runs[1]
        summary = tracing.summarize(trace_path)
        untraced = sum(run["metrics"]["updates_per_s"] for run in runs[::3])
        traced = sum(run["metrics"]["updates_per_s"] for run in runs[1:3])
        values = layer_metrics(result, summary, 100.0 * (untraced / traced - 1.0))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
        errors = [error for run in runs for error in run["errors"]]
    else:
        setups = [
            child(workload, seed, seconds, tmp, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = child(workload, seed, seconds, tmp, deadline)
        setups.append(result["setup_s"])
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        errors = result["errors"]
    print(f"samples [{workload}]: {result['samples']}", file=sys.stderr)
    for error in errors:
        print(f"CHECK FAILED [{workload}]: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def repeat(workloads, seed: int, seconds: float, count: int, tmp: str) -> bool:
    """Run each workload ``count`` times; print median and quartiles."""
    correct = True
    report = {}
    for workload in workloads:
        runs = []
        for offset in range(count):
            deadline = time.monotonic() + BUDGET_S
            result = measure(workload, seed + offset, seconds, False, tmp, deadline)
            correct &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed + offset}: " + ", ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()
            ), flush=True)
        rows = {}
        for name in END_TO_END:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0}
            print(f"  {name:24s} median {median:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {rows[name]['spread']:.3f}")
        report[workload] = rows
    print(json.dumps({"correct": correct, "repeat": report}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times (>= 4)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.repeat:
        parser.error("--workload all needs --repeat")
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps
    # the workload process, and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".pipebench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.repeat:
            workloads = WORKLOADS if args.workload == "all" else (args.workload,)
            return 0 if repeat(workloads, args.seed, args.seconds,
                               max(args.repeat, 4), tmp) else 1
        deadline = time.monotonic() + BUDGET_S
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), tmp, deadline)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
