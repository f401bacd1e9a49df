"""Command-line surface.

Every command emits a JSON envelope {"map", "n", "exact", "result",
"engine_version", "elapsed_ms"} (plus "note" where a caveat applies) to
stdout or --out; --format csv flattens just the result.  The handlers
return only (result, exit code); `run` loads --map once and builds the
envelope: "map" and "note" from the loaded map, "n" from --n (--n-max
for `shortest`), "exact" and any fixed note from the subcommand's parser
defaults.  Exit codes:
0 success, 2 validation, usage or file error, 3 resource limit exceeded
(1 is reserved for `verify` finding a failed check).

No command caps n; budgets bound the work instead, and each refuses
before the work starts where its size is known.  --cell-budget bounds
the exact commands' refinement, checked against a lower bound on the
items of each depth before the walk; `forbidden` also counts its n!
candidates against it.  --node-budget bounds the avoider search of
`avoiders` and `count`, and `avoiders` also charges its count * n
listed entries against it before building any word.  Set
PATLAB_CACHE_DIR to reuse exact pattern sets across runs; entries are
keyed by map spec, operation, n, and engine version.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .bounds import METHODS, ORIENTATIONS, basis_length_check, basis_obstruction, shortest_bound
from .engine import (
    DEFAULT_CELL_BUDGET,
    exact_allowed,
    exact_basic_forbidden,
    exact_forbidden,
    shortest_forbidden_length,
)
from .errors import BadParameter, PatlabError, ResourceLimit
from .mapspec import SHORTHANDS, load_map_spec
from .perms import DEFAULT_NODE_BUDGET, avoiders, count_avoiders, parse_perm

SAMPLE_NOTE = "sampled lower bound: absent patterns are not thereby forbidden"
CHECK_BASIS_NOTE = (
    "each listed piece count is ruled out as having exactly this minimal "
    "forbidden set; obstruction certified up to m_max={m_max}"
)


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


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed flags and the loaded map (None
# for a subcommand without --map) and returns (result, exit code)


def _cmd_pattern_set(args, lm) -> tuple:
    from . import cache  # here, not at import: only the exact pattern-set commands use it

    m = lm.require_exact()
    compute = lambda: args.op(m, args.n, args.cell_budget)
    return cache.pattern_set(lm.spec, args.command, args.n, compute), 0


def _cmd_shortest(args, lm) -> tuple:
    return shortest_forbidden_length(lm.require_exact(), args.n, args.cell_budget), 0


def _cmd_bound(args, lm) -> tuple:
    return asdict(shortest_bound(lm.require_exact(), args.method, args.orientation)), 0


def _cmd_avoiders(args, lm) -> tuple:
    return avoiders(_parse_patterns(args.patterns), args.n, args.node_budget).to_json(), 0


def _cmd_count(args, lm) -> tuple:
    return count_avoiders(_parse_patterns(args.patterns), args.n, args.node_budget), 0


def _cmd_sample(args, lm) -> tuple:
    from . import numeric  # here, not at import: it loads NumPy

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
    return result, 0


def _cmd_check_basis(args, lm) -> tuple:
    return basis_obstruction(_parse_patterns(args.patterns), args.m_max), 0


def _cmd_length_check(args, lm) -> tuple:
    result = asdict(basis_length_check(_parse_lengths(args.lengths)))
    result["lengths"] = list(result["lengths"])
    return result, 0


def _cmd_verify(args, lm) -> tuple:
    from .verify import check_names, run_all  # here, not at import: its checks load NumPy

    unknown = [name for name in args.only or () if name not in check_names()]
    if unknown:
        raise BadParameter(f"no checks match {unknown}")
    results = run_all(args.only)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.elapsed_s:.2f}s)", file=sys.stderr)
    rows = [asdict(r) | {"elapsed_s": round(r.elapsed_s, 3)} for r in results]
    return rows, 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patlab",
        description="Exact and sampled order-pattern analysis of interval self-maps.",
    )
    parser.add_argument("--version", action="version", version=f"patlab {__version__}")
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, help_text, map_flag=True, exact=True, note=None, **defaults):
        # the envelope's exact and fixed note ride along as defaults; a note
        # may name flags, as in {m_max}
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, exact=exact, note=note, **defaults)
        if map_flag:
            p.add_argument(
                "--map",
                required=True,
                help=f"catalog shorthand ({', '.join(SHORTHANDS.values())}), "
                "inline JSON, or a spec-file path",
            )
        return p

    # the engine functions are read here, not at import, so a wrapped
    # module global is what the handler calls
    for name, op, help_text in (
        ("allowed", exact_allowed, "length-n patterns realized by some orbit (exact)"),
        ("forbidden", exact_forbidden, "length-n patterns no orbit realizes (exact)"),
        ("basic", exact_basic_forbidden, "minimal forbidden patterns of length n (exact)"),
    ):
        p = command(name, _cmd_pattern_set, help_text, op=op)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET)

    p = command("shortest", _cmd_shortest, "least n with a forbidden pattern")
    p.add_argument("--n-max", dest="n", metavar="N_MAX", type=int, default=10)
    p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET)

    p = command("bound", _cmd_bound, "geometric upper bound on the shortest forbidden length")
    p.add_argument("--method", choices=METHODS, default="simple")
    p.add_argument("--orientation", choices=ORIENTATIONS, default="below")

    for name, handler, help_text, patterns_help in (
        ("avoiders", _cmd_avoiders, "permutations with no window matching any pattern",
         "comma-separated (use ';' for n >= 10)"),
        ("count", _cmd_count, "number of avoiders without materializing them", None),
    ):
        p = command(name, handler, help_text, map_flag=False)
        p.add_argument("--patterns", required=True, help=patterns_help)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    p = command("sample", _cmd_sample, "patterns realized by sampled float orbits (approximate)",
                exact=False, note=SAMPLE_NOTE)
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

    p = command("check-basis", _cmd_check_basis, "piece counts ruled out for a candidate minimal set",
                map_flag=False, note=CHECK_BASIS_NOTE)
    p.add_argument("--patterns", required=True)
    p.add_argument("--m-max", type=int, default=5)

    p = command("length-check", _cmd_length_check, "counting inequality for candidate basis lengths",
                map_flag=False)
    p.add_argument("--lengths", required=True, help="comma-separated pattern lengths")

    p = command("verify", _cmd_verify, "run the package acceptance checklist", map_flag=False)
    p.add_argument("--only", action="append", metavar="NAME", help="run a single named check")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
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


def _emit(result, lm, args, started: float) -> None:
    envelope = {
        "map": lm.label if lm else None,
        "n": getattr(args, "n", None),
        "exact": args.exact,
        "result": result,
        "engine_version": __version__,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    note = args.note.format_map(vars(args)) if args.note else lm and lm.note
    if note:
        envelope["note"] = note
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            fh.write(_result_to_csv(result))
        else:
            # streamed in blocks of encoder chunks: few writes, and a large report is never held whole
            chunks = json.JSONEncoder(indent=2).iterencode(envelope)
            while block := list(itertools.islice(chunks, 4096)):
                fh.write("".join(block))
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
        lm = load_map_spec(args.map) if hasattr(args, "map") else None
        result, code = args.handler(args, lm)
        _emit(result, lm, args, started)
    except ResourceLimit as exc:
        print(f"patlab: resource limit: {exc}", file=sys.stderr)
        return 3
    except (PatlabError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"patlab: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
