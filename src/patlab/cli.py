"""Command-line surface.

Every command emits a JSON envelope {"map", "n", "exact", "result",
"engine_version", "elapsed_ms"} (plus "note" where a caveat applies) to
stdout or --out; --format csv flattens just the result.  Exit codes:
0 success, 2 validation, usage or file error, 3 resource limit exceeded
(1 is reserved for `verify` finding a failed check).

Exact subcommands and `avoiders` cap n at 10 unless --unsafe is given:
beyond that the refinement, or the listing, grows roughly exponentially
in n and is a deliberate act, not a typo.  `count` prints one integer
and has no cap; --node-budget bounds its work.  `forbidden` also counts
its n! candidates against --cell-budget.  Set PATLAB_CACHE_DIR to reuse
exact pattern sets across runs; entries are keyed by map spec,
operation, n, and engine version.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .bounds import basis_length_check, basis_obstruction, shortest_bound
from .engine import (
    DEFAULT_CELL_BUDGET,
    exact_allowed,
    exact_basic_forbidden,
    exact_forbidden,
    shortest_forbidden_length,
)
from .errors import BadParameter, PatlabError, ResourceLimit
from .mapspec import SHORTHANDS, load_map_spec
from .perms import DEFAULT_NODE_BUDGET, PatternSet, avoiders, count_avoiders, parse_perm

SAFE_N_MAX = 10
SAMPLE_NOTE = "sampled lower bound: absent patterns are not thereby forbidden"


def _parse_patterns(text: str) -> list:
    # semicolons separate patterns that themselves contain commas (n >= 10)
    sep = ";" if ";" in text else ","
    parts = [s.strip() for s in text.split(sep) if s.strip()]
    if not parts:
        raise BadParameter("--patterns must name at least one pattern")
    return [parse_perm(s) for s in parts]


def _parse_lengths(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise BadParameter(f"--lengths must be comma-separated integers: {exc}") from None


def _guard_n(value: int, flag: str, unsafe: bool) -> None:
    if value > SAFE_N_MAX and not unsafe:
        raise BadParameter(
            f"{flag} {value} exceeds the safety cap {SAFE_N_MAX}; pass --unsafe to proceed"
        )


def _cached_pattern_set(lm, op: str, n: int, compute) -> dict:
    from . import cache  # here, not at import: only the exact pattern-set commands use it

    if cache.cache_dir() is None:
        return compute().to_json()
    inputs = cache.key_inputs(lm.spec, op, n, __version__)
    result = cache.fetch(inputs)
    # the hash shows the record is intact, not that its writer stored a
    # well-formed answer: serve only the canonical JSON of a length-n set
    with contextlib.suppress(PatlabError):
        found = PatternSet.from_json(result)
        if found.n == n and cache.canonical_json(found.to_json()) == cache.canonical_json(result):
            return result
    # missing, corrupt, tampered or noncanonical entry: recompute and overwrite
    body = cache.canonical_json(compute().to_json())
    cache.keep(inputs, body)
    return json.loads(body)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (envelope core, exit code)

_EXACT_OPS = {
    "allowed": exact_allowed,
    "forbidden": exact_forbidden,
    "basic": exact_basic_forbidden,
}


def _cmd_pattern_set(args) -> tuple[dict, int]:
    lm = load_map_spec(args.map)
    m = lm.require_exact()
    _guard_n(args.n, "--n", args.unsafe)
    compute = lambda: _EXACT_OPS[args.command](m, args.n, args.cell_budget)
    result = _cached_pattern_set(lm, args.command, args.n, compute)
    return {"map": lm.label, "n": args.n, "exact": True, "result": result, "note": lm.note}, 0


def _cmd_shortest(args) -> tuple[dict, int]:
    lm = load_map_spec(args.map)
    m = lm.require_exact()
    _guard_n(args.n_max, "--n-max", args.unsafe)
    value = shortest_forbidden_length(m, args.n_max, args.cell_budget)
    return {"map": lm.label, "n": args.n_max, "exact": True, "result": value, "note": lm.note}, 0


def _cmd_bound(args) -> tuple[dict, int]:
    lm = load_map_spec(args.map)
    m = lm.require_exact()
    report = shortest_bound(m, args.method, args.orientation)
    return {"map": lm.label, "n": None, "exact": True, "result": asdict(report), "note": lm.note}, 0


def _cmd_avoiders(args) -> tuple[dict, int]:
    patterns = _parse_patterns(args.patterns)
    _guard_n(args.n, "--n", args.unsafe)
    result = avoiders(patterns, args.n, args.node_budget).to_json()
    return {"map": None, "n": args.n, "exact": True, "result": result}, 0


def _cmd_count(args) -> tuple[dict, int]:
    patterns = _parse_patterns(args.patterns)
    result = count_avoiders(patterns, args.n, args.node_budget)
    return {"map": None, "n": args.n, "exact": True, "result": result}, 0


def _cmd_sample(args) -> tuple[dict, int]:
    from . import numeric  # here, not at import: it loads NumPy

    lm = load_map_spec(args.map)
    nm = lm.numeric()
    given = {
        "grid_count": args.grid,
        "random_count": args.random,
        "seed": args.seed,
        "tie_epsilon": args.tie_eps,
    }
    # flags left out keep SampleConfig's own defaults
    cfg = numeric.SampleConfig(**{k: v for k, v in given.items() if v is not None})
    result = numeric.sampled_allowed(nm, args.n, cfg).to_json()
    if args.scan_missing is not None:
        result["first_missing_cap"] = numeric.first_missing_cap(nm, args.scan_missing, cfg)
    return {"map": lm.label, "n": args.n, "exact": False, "result": result, "note": SAMPLE_NOTE}, 0


def _cmd_check_basis(args) -> tuple[dict, int]:
    patterns = _parse_patterns(args.patterns)
    orders = basis_obstruction(patterns, args.m_max)
    note = (
        "each listed piece count is ruled out as having exactly this minimal "
        f"forbidden set; obstruction certified up to m_max={args.m_max}"
    )
    return {"map": None, "n": None, "exact": True, "result": orders, "note": note}, 0


def _cmd_length_check(args) -> tuple[dict, int]:
    report = basis_length_check(_parse_lengths(args.lengths))
    result = asdict(report)
    result["lengths"] = list(result["lengths"])
    return {"map": None, "n": None, "exact": True, "result": result}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    from .verify import run_all  # here, not at import: its checks load NumPy

    results = run_all(args.only or None)
    if not results:
        raise BadParameter(f"no checks match {args.only}")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.elapsed_s:.2f}s)", file=sys.stderr)
    rows = [
        {
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "elapsed_s": round(r.elapsed_s, 3),
        }
        for r in results
    ]
    code = 0 if all(r.passed for r in results) else 1
    return {"map": None, "n": None, "exact": True, "result": rows}, code


_HANDLERS = {
    "allowed": _cmd_pattern_set,
    "forbidden": _cmd_pattern_set,
    "basic": _cmd_pattern_set,
    "shortest": _cmd_shortest,
    "bound": _cmd_bound,
    "avoiders": _cmd_avoiders,
    "count": _cmd_count,
    "sample": _cmd_sample,
    "check-basis": _cmd_check_basis,
    "length-check": _cmd_length_check,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def _add_map_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--map",
        required=True,
        help=f"catalog shorthand ({', '.join(SHORTHANDS.values())}), "
        "inline JSON, or a spec-file path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patlab",
        description="Exact and sampled order-pattern analysis of interval self-maps.",
    )
    parser.add_argument("--version", action="version", version=f"patlab {__version__}")
    sub = parser.add_subparsers(dest="command")

    for name, help_text in (
        ("allowed", "length-n patterns realized by some orbit (exact)"),
        ("forbidden", "length-n patterns no orbit realizes (exact)"),
        ("basic", "minimal forbidden patterns of length n (exact)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_map_flag(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET)
        p.add_argument("--unsafe", action="store_true", help="lift the n cap of 10")
        _add_output_flags(p)

    p = sub.add_parser("shortest", help="least n with a forbidden pattern")
    _add_map_flag(p)
    p.add_argument("--n-max", type=int, default=SAFE_N_MAX)
    p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET)
    p.add_argument("--unsafe", action="store_true", help="lift the n-max cap of 10")
    _add_output_flags(p)

    p = sub.add_parser("bound", help="geometric upper bound on the shortest forbidden length")
    _add_map_flag(p)
    p.add_argument("--method", choices=("simple", "refined"), default="simple")
    p.add_argument("--orientation", choices=("below", "above"), default="below")
    _add_output_flags(p)

    p = sub.add_parser("avoiders", help="permutations with no window matching any pattern")
    p.add_argument("--patterns", required=True, help="comma-separated (use ';' for n >= 10)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--unsafe", action="store_true", help="lift the n cap of 10")
    _add_output_flags(p)

    p = sub.add_parser("count", help="number of avoiders without materializing them")
    p.add_argument("--patterns", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    _add_output_flags(p)

    p = sub.add_parser("sample", help="patterns realized by sampled float orbits (approximate)")
    _add_map_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int)
    p.add_argument("--random", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tie-eps", type=float)
    p.add_argument(
        "--scan-missing",
        type=int,
        metavar="N_MAX",
        help="also report the first length whose cap pattern (n-1)12..(n-2)n never occurs",
    )
    _add_output_flags(p)

    p = sub.add_parser("check-basis", help="piece counts ruled out for a candidate minimal set")
    p.add_argument("--patterns", required=True)
    p.add_argument("--m-max", type=int, default=5)
    _add_output_flags(p)

    p = sub.add_parser("length-check", help="counting inequality for candidate basis lengths")
    p.add_argument("--lengths", required=True, help="comma-separated pattern lengths")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="run the package acceptance checklist")
    p.add_argument("--only", action="append", metavar="NAME", help="run a single named check")
    _add_output_flags(p)

    return parser


# ---------------------------------------------------------------------------
# rendering


def _result_to_csv(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(result, dict) and "patterns" in result and set(result) <= {"n", "patterns"}:
        writer.writerow(["pattern"])
        for pat in result["patterns"]:
            writer.writerow([pat])
    elif isinstance(result, dict):
        # a pattern set with extra fields: one row per field, one per pattern
        writer.writerow(["field", "value"])
        for key, value in result.items():
            if key == "patterns":
                writer.writerows(["pattern", pat] for pat in value)
            else:
                writer.writerow([key, value])
    elif isinstance(result, list) and result and isinstance(result[0], dict):
        keys = list(result[0])
        writer.writerow(keys)
        for row in result:
            writer.writerow([row.get(k) for k in keys])
    elif isinstance(result, list):
        writer.writerow(["value"])
        for value in result:
            writer.writerow([value])
    else:
        writer.writerow(["result"])
        writer.writerow([result])
    return buf.getvalue()


def _emit(core: dict, args, started: float) -> None:
    envelope = {
        "map": core.get("map"),
        "n": core.get("n"),
        "exact": core.get("exact"),
        "result": core.get("result"),
        "engine_version": __version__,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    if core.get("note"):
        envelope["note"] = core["note"]
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            fh.write(_result_to_csv(envelope["result"]))
        else:
            json.dump(envelope, fh, indent=2)  # streamed, so a large report is never held twice
            fh.write("\n")


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("patlab: a subcommand is required", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        core, code = _HANDLERS[args.command](args)
        _emit(core, args, started)
    except ResourceLimit as exc:
        print(f"patlab: resource limit: {exc}", file=sys.stderr)
        return 3
    except (PatlabError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"patlab: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
