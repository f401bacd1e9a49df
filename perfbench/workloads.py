"""The four workloads: their operations, how one pass runs, and the checks.

Library workloads (exact, witness, sample) run each pass in a fresh
worker process, so no result is carried over between passes.  The cli
workload is one closed-loop client that runs `python -m patlab` commands
one after another.  Every operation has a check against the oracles in
oracles.py.  A workload's `faults` names operations that fail because of
a known fault in patlab; their mismatches count as failed, not as wrong.
A pass keeps its times as measured, when each was taken, and the
readings of the host's speed (hostspeed.py) taken around them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles as O
from hostspeed import reading

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
CHILD_TIMEOUT_S = 150
SETUP_EVERY = 4  # cli: one `--version` launch (a set-up sample) before every 4th command

# `python -m patlab ARGS` as `python -c CLI_LAUNCHER ARGS`: the same module run
# (runpy is what -m uses), which then writes its own peak RSS (VmHWM, see
# worker.peak_rss_mb) to the file named by PERFBENCH_PEAK_FILE
CLI_LAUNCHER = """\
import os, runpy
try:
    runpy.run_module("patlab", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_PEAK_FILE"], "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

# A hand-edited cache entry that is valid JSON but not the answer.  The CLI
# serves it as the exact `basic --map tent --n 4` (cli._cached_pattern_set
# trusts any entry that parses), so this operation fails until that is mended.
TAMPERED_ENTRY = '{"n":4,"patterns":["1234"]}'


@dataclass
class Pass:
    op_s: dict[str, float] = field(default_factory=dict)
    op_at: dict[str, tuple[float, float]] = field(default_factory=dict)  # monotonic start, end
    results: dict[str, object] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    rss_mb: float = 0.0
    setups: list[tuple[float, float, float]] = field(default_factory=list)  # (seconds, start, end)
    readings: list[tuple[float, float]] = field(default_factory=list)  # hostspeed.reading()
    spans: list[list] = field(default_factory=list)  # one span list per traced process
    extra: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PATLAB_CACHE_DIR", None)
    return env


def warm_up(env) -> None:
    """Import patlab once, untimed, so a fresh checkout writes its bytecode caches."""
    subprocess.run([sys.executable, "-c", "import patlab"], env=env, cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)


def spawn(argv, env, out_path: Path, readings: list | None = None) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, launch time, end time).

    stdout goes to out_path, stderr beside it; a child that outlives
    CHILD_TIMEOUT_S is killed.  Given a readings list, the host's speed is
    read right before the launch and right after the exit.
    """
    if readings is not None:
        readings.append(reading())
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    if readings is not None:
        readings.append(reading())
    return code, t0, t1


def _perm(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _pset(result) -> set:
    return {_perm(w) for w in result}


class Oracles:
    """Reference data for one run, computed on first use (outside any timing)."""

    def __init__(self):
        self._grid: dict[str, dict] = {}
        self._basic: dict[tuple[str, int], set] = {}
        self._components: dict[str, int] = {}

    def allowed(self, label: str, n: int) -> set:
        # the skew tent map is conjugate to tent by an increasing homeomorphism,
        # so it has exactly the tent map's allowed patterns
        key = "tent" if label == O.SKEW_TENT_SPEC else label
        if key not in self._grid:
            n_max = {"tent": 11, "sawtooth:3": 8, "alt_sawtooth:5": 6}[key]
            self._grid[key] = O.grid_allowed(O.pieces_for(key), n_max)
        return self._grid[key][n]

    def basic(self, label: str, n: int) -> set:
        if (label, n) not in self._basic:
            self._basic[label, n] = O.basic_from_allowed(self.allowed(label, n - 1), self.allowed(label, n), n)
        return self._basic[label, n]

    def components(self, label: str) -> int:
        if label not in self._components:
            self._components[label] = O.below_diagonal_components(O.pieces_for(label))
        return self._components[label]


# shortest forbidden length: 3 for tent (and its conjugate), N + 2 for
# sawtooth:N, N + 1 for odd alt_sawtooth:N
SHORTEST = {"tent": 3, O.SKEW_TENT_SPEC: 3, "sawtooth:3": 5, "alt_sawtooth:5": 6,
            "alt_sawtooth:9": 10, "alt_sawtooth:11": 12}


def _orbit_pattern(rng: random.Random, label: str, n: int):
    """Pattern of the exact orbit of a seeded rational start point (distinct values)."""
    pieces = O.pieces_for(label)
    while True:
        vals = O.orbit(pieces, Fraction(rng.randrange(1, 10007), 10007), n)
        if len(set(vals)) == n:
            return O.standardize(vals)


# ---------------------------------------------------------------------------
# library workloads


class Library:
    """patlab calls in groups that share no state; a pass runs each group in a
    fresh worker process, and every launch is also a set-up sample."""

    faults = frozenset()

    def __init__(self, name: str, work: Path, maps, groups, checks, rng: random.Random):
        self.name = name
        self.work = work
        self.checks = checks
        self.env = child_env()
        groups = [_shuffled(g, rng) for g in groups]
        rng.shuffle(groups)
        self.ops = [op for g in groups for op in g]
        self.plans = []
        for i, group in enumerate(groups):
            plan = work / f"{name}-plan{i}.json"
            plan.write_text(json.dumps({"maps": maps, "ops": group}))
            self.plans.append(plan)
        self._n = 0

    def run_pass(self, traced: bool = False) -> Pass:
        p = Pass()
        for plan in self.plans:
            self._n += 1
            out = self.work / f"{self.name}-{self._n}.json"
            code, t0, _ = spawn(
                [sys.executable, str(WORKER), str(plan), str(out), *(["--trace"] if traced else [])],
                self.env, out.with_suffix(".log"), p.readings,
            )
            if code != 0:
                tail = out.with_suffix(".err").read_text(errors="replace")[-2000:]
                raise RuntimeError(f"{self.name} worker exited {code}:\n{tail}")
            data = json.loads(out.read_text())
            p.setups.append((data["ready"] - t0, t0, data["ready"]))
            p.readings += [tuple(r) for r in data["readings"]]
            p.rss_mb = max(p.rss_mb, data["peak_rss_mb"])
            for o in data["ops"]:
                p.op_s[o["id"]] = o["s"]
                p.op_at[o["id"]] = tuple(o["at"])
                p.results[o["id"]] = o["result"]
                if o["error"]:
                    p.errors[o["id"]] = o["error"]
            if traced:
                p.spans.append(data["spans"])
        return p


def _shuffled(ops, rng):
    ops = list(ops)
    rng.shuffle(ops)
    return ops


def exact(seed: int, work: Path, orc: Oracles) -> Library:
    """exact_allowed / exact_basic_forbidden / shortest_forbidden_length on four maps."""
    rng = random.Random(seed)
    horizons = {"tent": 11, "sawtooth:3": 7, "alt_sawtooth:5": 6, O.SKEW_TENT_SPEC: 10}
    groups, checks = [], {}
    # exact orbits of seeded rational points certify skew-tent patterns as realized
    n_skew = horizons[O.SKEW_TENT_SPEC]
    certified = {O.SKEW_TENT_SPEC: {_orbit_pattern(rng, O.SKEW_TENT_SPEC, n_skew) for _ in range(12)}}
    for i, (label, n) in enumerate(horizons.items()):
        groups.append([
            {"id": f"allowed-{i}", "fn": "exact_allowed", "map": label, "args": [n]},
            {"id": f"basic-{i}", "fn": "exact_basic_forbidden", "map": label, "args": [n]},
            {"id": f"shortest-{i}", "fn": "shortest_forbidden_length", "map": label,
             "args": [SHORTEST[label] + 1]},
        ])

        def check_allowed(r, _all, label=label, n=n):
            got = _pset(r)
            return got == orc.allowed(label, n) and certified.get(label, set()) <= got

        def check_basic(r, _all, label=label, n=n):
            got = _pset(r)
            ok = got == orc.basic(label, n)
            if label == "tent":
                ok &= O.tent_families(n) <= got
            return ok

        checks[f"allowed-{i}"] = check_allowed
        checks[f"basic-{i}"] = check_basic
        checks[f"shortest-{i}"] = lambda r, _all, label=label: r == SHORTEST[label]
    maps = [[label, "exact"] for label in horizons]
    return Library("exact", work, maps, groups, checks, rng)


def witness(seed: int, work: Path, orc: Oracles) -> Library:
    """Single-pattern questions (pruned walk), bounds, obstructions and avoider counts."""
    rng = random.Random(seed)
    groups, checks = [[] for _ in range(4)], {}

    def add(group, op, check):
        op["id"] = f"{op['fn']}-{len(checks)}"
        groups[group].append(op)
        checks[op["id"]] = check

    # the paper's witnesses: alt_sawtooth:N (N odd) has (N-1)/2 components
    # below the diagonal, so witness((N-1)/2) of length N+1 is forbidden
    for n_ramps in (9, 11):
        w = O.simple_witness((n_ramps - 1) // 2)
        add(0 if n_ramps == 9 else 1, {"fn": "is_realized", "map": f"alt_sawtooth:{n_ramps}", "args": [w]},
            lambda r, _all: r is False)
    for label, length in (("alt_sawtooth:5", 16), (O.SKEW_TENT_SPEC, 16), ("sawtooth:3", 12)):
        for _ in range(3):
            add(0, {"fn": "is_realized", "map": label, "args": [_orbit_pattern(rng, label, length)]},
                lambda r, _all: r is True)
    basic7 = sorted(orc.basic("sawtooth:3", 7))
    for p in rng.sample(basic7, 3):
        add(0, {"fn": "is_realized", "map": "sawtooth:3", "args": [p]}, lambda r, _all: r is False)

    for label, method in (("alt_sawtooth:9", "simple"), ("alt_sawtooth:11", "simple"),
                          ("sawtooth:3", "refined")):
        def check_bound(r, _all, label=label, method=method):
            extra = 2 if method == "simple" else 3
            ok = r["bound"] == 2 * r["component_count"] + extra and r["bound"] >= SHORTEST[label]
            if method == "simple":
                ok &= r["component_count"] == orc.components(label)
            return ok

        add(2, {"fn": "shortest_bound", "map": label, "args": [method, "below"]}, check_bound)

    tent_basis = sorted(p for n in (3, 4, 5) for p in orc.basic("tent", n))
    for patterns, m_max in (([(1, 3, 2), (2, 3, 1)], 6), (sorted(orc.basic("tent", 4)), 4)):
        add(2, {"fn": "basis_obstruction", "args": [patterns, m_max]},
            lambda r, _all, p=patterns, m=m_max: r == O.obstructed_orders(p, m))
    for lengths in ([3, 3], [rng.randrange(6, 13)]):
        add(2, {"fn": "basis_length_check", "args": [lengths]},
            lambda r, _all, ks=lengths: {k: r[k] for k in ("total", "required", "satisfied")}
            == O.length_budget(ks))

    add(2, {"fn": "count_avoiders", "args": [[(1, 3, 2), (2, 3, 1)], 12]},
        lambda r, _all: r == 2 ** 11)
    add(2, {"fn": "count_avoiders", "args": [[(1, 2, 3)], 9]},
        lambda r, _all: r == O.A049774[9] == O.a049774(9))
    add(3, {"fn": "count_avoiders", "args": [tent_basis, 10]},
        lambda r, _all: r == O.count_avoiders(tent_basis, 10))
    maps = [[label, "exact"] for label in sorted({o["map"] for g in groups for o in g if "map" in o})]
    return Library("witness", work, maps, groups, checks, rng)


def sample(seed: int, work: Path, orc: Oracles) -> Library:
    """sampled_allowed at the default sample counts, one large query and cap scans."""
    rng = random.Random(seed)
    cfg = {"seed": seed}
    large = {"grid_count": 300_000, "random_count": 300_000, "seed": seed}
    groups, checks = {}, {}

    def add(op_id, label, fn, n, config, check):
        groups.setdefault(label, []).append({"id": op_id, "fn": fn, "map": label, "args": [n, config]})
        checks[op_id] = check

    # r < 4: a sampled pattern's prefix is realized by the same start point
    for r, (lo, hi) in ((3.7, (6, 7)), (3.83, (4, 5)), (3.99, (7, 8))):
        label = f"logistic:{r}"
        add(f"{label}@{lo}", label, "sampled_allowed", lo, cfg,
            lambda res, _all, n=lo: bool(res) and all(sorted(p) == list(range(1, n + 1)) for p in _pset(res)))
        add(f"{label}@{hi}", label, "sampled_allowed", hi, cfg,
            lambda res, rs, a=f"{label}@{lo}": O.prefix_closed(_pset(res), _pset(rs[a])))
    # logistic:4 is order-isomorphic to tent: sampled within exact, equal for n <= 5
    add("logistic:4@5", "logistic:4", "sampled_allowed", 5, cfg,
        lambda res, _all: _pset(res) == orc.allowed("tent", 5))
    add("logistic:4@6-large", "logistic:4", "sampled_allowed", 6, large,
        lambda res, _all: _pset(res) <= orc.allowed("tent", 6))
    add("one_minus_x_squared@8", "one_minus_x_squared", "sampled_allowed", 8, cfg,
        lambda res, _all: _pset(res) == O.decreasing_map_patterns(8))

    def scan_consistent(res, rs, sets):
        # first_missing_cap is the least n whose cap pattern was not sampled
        for n, key in sets.items():
            if res is None or res > n:
                if O.cap(n) not in _pset(rs[key]):
                    return False
            elif res == n and O.cap(n) in _pset(rs[key]):
                return False
        return res is None or 3 <= res

    add("scan-logistic:3.83", "logistic:3.83", "first_missing_cap", 8, cfg,
        lambda res, rs: scan_consistent(res, rs, {4: "logistic:3.83@4", 5: "logistic:3.83@5"}))

    def check_scan4(res, rs):
        # sampling is complete up to n = 5 and tent allows every cap up to 11
        first_forbidden = next((n for n in range(3, 7) if O.cap(n) not in orc.allowed("tent", n)), None)
        if first_forbidden is not None and (res is None or res > first_forbidden):
            return False
        return scan_consistent(res, rs, {5: "logistic:4@5"}) and (res is None or res >= 6)

    add("scan-logistic:4", "logistic:4", "first_missing_cap", 6, cfg, check_scan4)
    maps = [[label, "numeric"] for label in groups]
    return Library("sample", work, maps, list(groups.values()), checks, rng)


# ---------------------------------------------------------------------------
# the CLI workload


class Cli:
    """One closed-loop client running `python -m patlab` commands one at a time."""

    def __init__(self, seed: int, work: Path, orc: Oracles):
        self.work = work
        self.env = child_env()
        self._n = 0
        self._avoiders_checked: dict[str, bool] = {}
        rng = random.Random(seed)
        basis = sorted(p for n in (3, 4, 5) for p in orc.basic("tent", n))
        self.basis = basis
        tent_basis = ",".join(O.word(p) for p in basis)
        sample_seed = rng.randrange(1, 1 << 30)
        cold = [
            ("allowed-cold", ["allowed", "--map", "tent", "--n", "10"]),
            ("basic-cold", ["basic", "--map", "tent", "--n", "10"]),
        ]
        warm = [("allowed-warm", cold[0][1]), ("basic-warm", cold[1][1])]
        rest = [
            ("avoiders", ["avoiders", "--patterns", tent_basis, "--n", "10"]),
            ("count", ["count", "--patterns", "123", "--n", "9"]),
            ("shortest", ["shortest", "--map", "sawtooth:3", "--n-max", "6"]),
            ("sample", ["sample", "--map", "logistic:4", "--n", "5", "--seed", str(sample_seed)]),
            ("bound", ["bound", "--map", "alt_sawtooth:9"]),
            ("check-basis", ["check-basis", "--patterns", "132,231", "--m-max", "5"]),
            ("length-check", ["length-check", "--lengths", "3,3"]),
            ("basic-csv", ["basic", "--map", "sawtooth:3", "--n", "6", "--format", "csv"]),
        ]
        rng.shuffle(rest)
        self.commands = cold + warm + rest
        tamper = ["basic", "--map", "tent", "--n", "4"]
        self.tamper = [("tamper-fill", tamper), ("tamper-read", tamper)]
        self.ops = [{"id": i} for i, _ in self.commands + self.tamper]
        self.faults = {"tamper-read"}

        def exact_set(text):
            env = json.loads(text)
            return {O.parse_word(w) for w in env["result"]["patterns"]} if env["exact"] is True else None

        def result(text):
            return json.loads(text)["result"]

        checks = {
            "allowed-cold": lambda t: exact_set(t) == orc.allowed("tent", 10),
            "allowed-warm": lambda t: exact_set(t) == orc.allowed("tent", 10),
            "basic-cold": lambda t: exact_set(t) == orc.basic("tent", 10),
            "basic-warm": lambda t: exact_set(t) == orc.basic("tent", 10),
            "avoiders": self._check_avoiders,
            "count": lambda t: result(t) == O.A049774[9],
            "shortest": lambda t: result(t) == SHORTEST["sawtooth:3"],
            "sample": lambda t: {O.parse_word(w) for w in result(t)["patterns"]} == orc.allowed("tent", 5),
            "bound": lambda t: result(t)["component_count"] == orc.components("alt_sawtooth:9")
            and result(t)["bound"] == SHORTEST["alt_sawtooth:9"],
            "check-basis": lambda t: result(t) == O.obstructed_orders([(1, 3, 2), (2, 3, 1)], 5),
            "length-check": lambda t: {k: result(t)[k] for k in ("total", "required", "satisfied")}
            == O.length_budget([3, 3]),
            "basic-csv": lambda t: t.splitlines()[0] == "pattern"
            and {O.parse_word(w) for w in t.splitlines()[1:]} == orc.basic("sawtooth:3", 6),
            "tamper-fill": lambda t: exact_set(t) == orc.basic("tent", 4),
            "tamper-read": lambda t: exact_set(t) == orc.basic("tent", 4),
        }
        self.checks = {k: (lambda f: lambda text, _all: f(text))(f) for k, f in checks.items()}

    def _check_avoiders(self, text) -> bool:
        # every pass prints the same listing; check each distinct text once
        if text not in self._avoiders_checked:
            self._avoiders_checked[text] = self._avoid_all(text)
        return self._avoiders_checked[text]

    def _avoid_all(self, text) -> bool:
        import numpy as np

        words = json.loads(text)["result"]["patterns"]
        if len(words) != O.count_avoiders(self.basis, 10) or len(set(words)) != len(words):
            return False
        perms = np.array([O.parse_word(w) for w in words], dtype=np.int64)
        if not (np.sort(perms, axis=1) == np.arange(1, 11)).all():
            return False
        # no window of any listed permutation reduces to a basis pattern
        for length in sorted({len(p) for p in self.basis}):
            forbidden = {p for p in self.basis if len(p) == length}
            for start in range(10 - length + 1):
                win = perms[:, start : start + length]
                ranks = np.argsort(np.argsort(win, axis=1), axis=1) + 1
                if any(tuple(row) in forbidden for row in np.unique(ranks, axis=0).tolist()):
                    return False
        return True

    def _fresh_dir(self, tag: str) -> Path:
        self._n += 1
        path = self.work / f"cli-{tag}-{self._n}"
        path.mkdir()
        return path

    def _version_launch(self, readings: list) -> tuple[float, float, float]:
        """`python -m patlab --version`, one set-up sample: (seconds, start, end)."""
        self._n += 1
        out = self.work / f"cli-{self._n}.out"
        code, t0, t1 = spawn([sys.executable, "-m", "patlab", "--version"], self.env, out, readings)
        if code != 0:
            raise RuntimeError(f"`python -m patlab --version` exited {code}")
        return t1 - t0, t0, t1

    def _command(self, args, cache_dir: Path, readings: list):
        """One command: (exit code, (start, end), peak RSS in MB, stdout path)."""
        self._n += 1
        out = self.work / f"cli-{self._n}.out"
        peak = out.with_suffix(".peak")
        env = {**self.env, "PATLAB_CACHE_DIR": str(cache_dir), "PERFBENCH_PEAK_FILE": str(peak)}
        code, t0, t1 = spawn([sys.executable, "-c", CLI_LAUNCHER, *args], env, out, readings)
        return code, (t0, t1), int(peak.read_text()) / 1024, out

    def run_pass(self) -> Pass:
        cache_dir = self._fresh_dir("cache")
        tamper_dir = self._fresh_dir("tamper")
        p = Pass()
        out_bytes = 0
        for i, (op_id, args) in enumerate(self.commands + self.tamper):
            if i % SETUP_EVERY == 0:
                p.setups.append(self._version_launch(p.readings))
            if op_id == "tamper-read":
                (entry,) = [f for f in tamper_dir.iterdir() if f.suffix == ".json"]
                entry.write_text(TAMPERED_ENTRY)
            directory = tamper_dir if op_id.startswith("tamper") else cache_dir
            code, (t0, t1), rss, out = self._command(args, directory, p.readings)
            p.op_s[op_id] = t1 - t0
            p.op_at[op_id] = (t0, t1)
            p.rss_mb = max(p.rss_mb, rss)
            out_bytes += out.stat().st_size
            if code == 0:
                p.results[op_id] = out.read_text()
            else:
                p.errors[op_id] = f"exit {code}: {out.with_suffix('.err').read_text()[-500:]}"
            out.unlink()
        shutil.rmtree(cache_dir)
        shutil.rmtree(tamper_dir)
        p.extra = {
            "cli.cold_s": p.op_s["allowed-cold"] + p.op_s["basic-cold"],
            "cli.warm_s": p.op_s["allowed-warm"] + p.op_s["basic-warm"],
            "cli.out_bytes": out_bytes,
        }
        return p

    def replay_in_process(self, traced: bool) -> tuple[float, list | None]:
        """The pass's commands through patlab.cli.run in one worker: (seconds, spans)."""
        cache_dir = self._fresh_dir("inproc")
        plan = self.work / "cli-inproc-plan.json"
        plan.write_text(json.dumps({"argv": self.commands, "cache_dir": str(cache_dir)}))
        self._n += 1
        out = self.work / f"cli-inproc-{self._n}.json"
        code, _, _ = spawn(
            [sys.executable, str(WORKER), str(plan), str(out), *(["--trace"] if traced else [])],
            self.env, out.with_suffix(".log"),
        )
        shutil.rmtree(cache_dir)
        if code != 0:
            raise RuntimeError(f"in-process CLI replay exited {code}")
        data = json.loads(out.read_text())
        return sum(o["s"] for o in data["ops"]), data.get("spans")


WORKLOADS = {"exact": exact, "witness": witness, "sample": sample, "cli": Cli}


def check_pass(workload, p: Pass) -> tuple[int, int, list[str]]:
    """(attempted, failed, wrong): failed = errors or known-fault mismatches."""
    failed, wrong = 0, []
    for op in workload.ops:
        op_id = op["id"]
        if op_id in p.errors:
            failed += 1
            if op_id not in workload.faults:
                wrong.append(f"{op_id}: {p.errors[op_id]}")
            continue
        try:
            ok = workload.checks[op_id](p.results[op_id], p.results)
        except Exception:  # malformed output: a wrong answer, not a crashed benchmark
            ok = False
        if ok:
            continue
        if op_id in workload.faults:
            failed += 1
        else:
            wrong.append(f"{op_id}: output disagrees with the oracle")
    return len(workload.ops), failed, wrong


def median(values):
    return statistics.median(values) if values else 0.0
