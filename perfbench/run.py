"""patlab benchmark: four workloads, each output checked against independent oracles.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one summary line each

Run from the root of a checkout.  One run repeats passes over the
workload's operations until the next pass would overrun --seconds, then
checks every output.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer figures from traced
passes, their self times and the tracing overhead.  Times and rates are
scaled to a reference host speed (hostspeed.py).  Details of each run,
with every time as measured, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 2


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="exact, witness, sample, cli or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _measure(wl, seconds: float, trace: bool):
    """Passes (with --trace, each followed by its traced twin) until the next would overrun."""
    import workloads as W

    W.warm_up(wl.env)
    passes, traced, replays = [], [], {False: [], True: []}
    start = time.monotonic()
    while True:
        passes.append(wl.run_pass())
        if trace:
            if isinstance(wl, W.Cli):
                for flag in (False, True):
                    replays[flag].append(wl.replay_in_process(flag))
            else:
                traced.append(wl.run_pass(traced=True))
        done = len(passes)
        elapsed = time.monotonic() - start
        if done >= (1 if trace else MIN_PASSES) and elapsed * (done + 1) / done > seconds:
            return passes, traced, replays


def _scaled_ops(p, readings) -> dict[str, float]:
    return {i: hostspeed.scaled(s, *p.op_at[i], readings) for i, s in p.op_s.items()}


def _end_to_end(wl, passes, readings) -> dict:
    import workloads as W

    scaled = [_scaled_ops(p, readings) for p in passes]
    wall = sum(W.median([ops[op["id"]] for ops in scaled]) for op in wl.ops)
    setups = [hostspeed.scaled(*s, readings) for p in passes for s in p.setups]
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": W.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": W.median([p.rss_mb for p in passes]), "unit": "MB"},
    }


def _import_times(env) -> tuple[float, float]:
    """Cumulative import seconds of patlab and of numpy, from `python -X importtime`."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import patlab"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stderr
    found = {}
    for line in out.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found.get("patlab", 0.0), found.get("numpy", 0.0)


def _per_layer(wl, passes, traced, replays, factor: float) -> dict:
    import tracing
    import workloads as W

    if isinstance(wl, W.Cli):
        summaries = [tracing.summarize([spans]) for _, spans in replays[True]]
        overhead = W.median([s for s, _ in replays[True]]) - W.median([s for s, _ in replays[False]])
    else:
        summaries = [tracing.summarize(p.spans) for p in traced]
        overhead = W.median([sum(p.op_s.values()) for p in traced]) - W.median(
            [sum(p.op_s.values()) for p in passes]
        )

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def derive(s) -> dict:
        out = {
            "mapspec.load_s": s["mapspec.load.total"],
            "pwl.refine_s": s["pwl.refine.total"],
            "pwl.cells": s["pwl.refine.count"],
            "pwl.cells_per_s": rate(s["pwl.refine.count"], s["pwl.refine.total"]),
            "engine.allowed_s": s["engine.allowed.total"],
            "engine.extract_s": s["engine.allowed.total"] - s["pwl.refine.total"],
            "engine.basic_s": s["engine.basic.total"],
            "engine.shortest_s": s["engine.shortest.total"],
            "engine.realize_s": s["engine.realize.total"],
            "perms.patternset_s": s["perms.patternset.total"],
            "perms.count_s": s["perms.count.total"],
            "perms.count_per_s": rate(s["perms.count.count"], s["perms.count.total"]),
            "perms.list_s": s["perms.list.total"],
            "perms.to_json_s": s["perms.to_json.total"],
            "perms.from_json_s": s["perms.from_json.total"],
            "numeric.sample_s": s["numeric.sample.total"],
            "numeric.orbits_per_s": rate(s["numeric.sample.count"], s["numeric.sample.total"]),
            "numeric.scan_s": s["numeric.scan.total"],
            "numeric.points_mb": s["numeric.sample.maxcount"] * 8 / 1e6,
            "bounds.s": s["bounds.total"],
            "cache.load_s": s["cache.load.total"],
            "cache.store_s": s["cache.store.total"],
            "cache.bytes": s["cache.load.count"] + s["cache.store.count"],
            "cli.run_s": s["cli.run.total"],
        }
        out.update({f"{name}.self_s": s[f"{name}.self"] for name in tracing.SPAN_NAMES})
        return out

    derived = [derive(s) for s in summaries]
    values = {key: W.median([d[key] for d in derived]) for key in derived[0]}
    for key in ("cli.cold_s", "cli.warm_s", "cli.out_bytes"):
        values[key] = W.median([p.extra.get(key, 0) for p in passes])
    imports = [_import_times(wl.env) for _ in range(3)]
    values["patlab.import_s"] = W.median([t for t, _ in imports])
    values["numeric.numpy_import_s"] = W.median([t for _, t in imports])
    values["trace.overhead_s"] = overhead
    # to the reference host speed by the run's factor, like the end-to-end times
    scale = {"s": factor, "1/s": 1 / factor}
    return {key: {"value": value * scale.get(unit_of(key), 1), "unit": unit_of(key)}
            for key, value in sorted(values.items())}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as W

    work = BENCH_DIR / "tmp" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        oracles = W.Oracles()
        wl = W.WORKLOADS[name](seed, work, oracles)
        passes, traced, replays = _measure(wl, seconds, trace)
        attempted = failed = 0
        wrong: list[str] = []
        for p in passes + traced:
            a, f, w = W.check_pass(wl, p)
            attempted, failed = attempted + a, failed + f
            wrong += w
        for msg in dict.fromkeys(wrong):
            print(f"perfbench: {name}: {msg}", file=sys.stderr)
        readings = [r for p in passes + traced for r in p.readings]
        # the run's factor: all its operations' scaled time over their measured time
        factor = sum(sum(_scaled_ops(p, readings).values()) for p in passes + traced) / sum(
            sum(p.op_s.values()) for p in passes + traced)
        if trace:
            metrics = _per_layer(wl, passes, traced, replays, factor)
        else:
            metrics = _end_to_end(wl, passes, readings)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        **result,
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "speed_factor": factor,
        # as measured, [seconds, monotonic start, end]; readings are [monotonic time, job seconds]
        "setup_samples": [s for p in passes for s in p.setups],
        "op_s": {op["id"]: [[p.op_s[op["id"]], *p.op_at[op["id"]]] for p in passes] for op in wl.ops},
        "readings": readings,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    print(f"{name}: times scaled to the reference host speed; on the whole run by {factor:.4g}")
    if trace:
        spans = [s for _, s in replays[True]] if replays[True] else [p.spans for p in traced]
        (out_dir / f"{name}-seed{seed}-spans.json").write_text(json.dumps(spans))
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "patlab" / "__init__.py").is_file():
        print(f"perfbench: no patlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # patlab makes no BLAS calls, but importing NumPy starts OpenBLAS's thread
    # pool; on a 2-CPU host that pool's start-up made `import patlab` vary by
    # half its length between batches of launches (7% with one thread).  Set
    # before NumPy is first imported here; every child inherits it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import workloads as W

    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(W.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        res = run_one(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        shown = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: {shown} attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
