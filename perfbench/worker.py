"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json [--trace]

The plan names the map specs to load and the operations to call.  The
worker imports patlab, loads every spec (set-up), writes the moment it
was ready, then times each operation and writes its results.  It reads
the host's speed (hostspeed.py) after set-up and after every operation,
outside the timed calls, and reports when each call ran.  With
--trace, spans around patlab's public functions are recorded as well.
A plan with "argv" lists instead replays CLI commands through
patlab.cli.run in this process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import time

from hostspeed import reading


def _jsonable(value):
    if hasattr(value, "patterns") and hasattr(value, "n"):
        return [",".join(map(str, p)) for p in value.patterns]
    if dataclasses.is_dataclass(value):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def peak_rss_mb() -> float:
    """This process's peak resident memory since exec (VmHWM).

    ru_maxrss would also count the parent's memory at the moment it spawned
    this process, because the spawned child shares the parent's pages until exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024


def _call(op, maps):
    import patlab

    fn = op["fn"]
    args = op["args"]
    if fn in ("exact_allowed", "exact_basic_forbidden", "shortest_forbidden_length"):
        return getattr(patlab.engine, fn)(maps[op["map"]], *args)
    if fn == "is_realized":
        return patlab.engine.is_realized(maps[op["map"]], tuple(args[0]))
    if fn == "shortest_bound":
        return patlab.bounds.shortest_bound(maps[op["map"]], *args)
    if fn == "basis_obstruction":
        return patlab.bounds.basis_obstruction([tuple(p) for p in args[0]], args[1])
    if fn == "basis_length_check":
        return patlab.bounds.basis_length_check(args[0])
    if fn == "count_avoiders":
        return patlab.perms.count_avoiders([tuple(p) for p in args[0]], args[1])
    if fn in ("sampled_allowed", "first_missing_cap"):
        cfg = patlab.numeric.SampleConfig(**args[1])
        return getattr(patlab.numeric, fn)(maps[op["map"]], args[0], cfg)
    raise ValueError(f"unknown operation {fn!r}")


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    tracer = None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import patlab

    if "argv" in plan:
        import patlab.cli  # noqa: F401  (imported before tracing so its references get wrapped)
    if "--trace" in argv:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    maps = {}
    for spec, engine in plan.get("maps", []):
        lm = patlab.mapspec.load_map_spec(spec)
        maps[spec] = lm.require_exact() if engine == "exact" else lm.numeric()
    ready = time.monotonic()
    out = {"ready": ready, "readings": [reading()]}
    if "argv" in plan:
        out["ops"] = _replay_cli(plan, tracer)
    else:
        ops = []
        for op in plan["ops"]:
            at, t0 = time.monotonic(), time.perf_counter()
            try:
                result, error = _call(op, maps), None
            except Exception as exc:  # a failed operation is reported, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            ops.append((op["id"], time.perf_counter() - t0, [at, time.monotonic()], result, error))
            out["readings"].append(reading())
        out["ops"] = [{"id": i, "s": s, "at": at, "result": _jsonable(r), "error": e}
                      for i, s, at, r, e in ops]
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _replay_cli(plan, tracer):
    """Run each argv through patlab.cli.run in this process; stdout is discarded."""
    import patlab.cli

    os.environ["PATLAB_CACHE_DIR"] = plan["cache_dir"]
    ops = []
    for op_id, args in plan["argv"]:
        t0 = time.perf_counter()
        span = tracer.span("cli.run") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), span:
            code = patlab.cli.run(args)
        ops.append({"id": op_id, "s": time.perf_counter() - t0, "result": code, "error": None})
    return ops


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
