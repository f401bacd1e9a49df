"""The exit-code contract, by generation: any argv ends in 0, 2 or 3.

`patlab.cli.run` is driven in process with generated argv for every
subcommand.  Flag values come from edge pools (zero, negatives, 2**63,
10**20, an integer of 4,301 digits, nan, inf, 1e999, the empty string,
non-ASCII digits, deep JSON nesting) and from small valid values; maps
come from the catalog shorthands and small inline pwl specs.  Budgets
and sample counts stay small and `verify` runs only its fast checks, so
each example ends well inside its deadline.

Invariant: `run` never raises and returns 0, 2 or 3, and only `verify`
may return 1.  A 2 or 3 raised after argparse leaves exactly one stderr
line that starts with `patlab:`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patlab
from patlab.bounds import METHODS, ORIENTATIONS
from patlab.cli import run

EDGES = [
    "0", "-1", str(2**63), str(10**20), "1" * 4301, "nan", "inf", "1e999", "",
    "٣", "１２", "[" * 50_000 + "]" * 50_000,
]
# values that bound the work: every positive one is small
SMALL_EDGES = [v for v in EDGES if v not in (str(2**63), str(10**20))]


def pwl(*pieces):
    return json.dumps({"type": "pwl", "pieces": list(pieces)})


MAPS = [
    "tent", "sawtooth:2", "sawtooth:3", "alt_sawtooth:3", "logistic:3.7", "logistic:4",
    "one_minus_x_squared",
    pwl({"lo": "0", "hi": "1", "slope": "1"}),  # the identity
    pwl({"lo": "0", "hi": "1", "slope": "1/2", "intercept": "1/4"}),  # contracting
    pwl({"lo": "0", "hi": "1", "slope": "-1", "intercept": "1"}),  # an involution
    pwl(
        {"lo": "0", "hi": "0", "slope": "0", "intercept": "1"},  # a point piece
        {"lo": "0", "hi": "1", "slope": "2", "intercept": "-1", "lo_closed": False},
    ),
    pwl({"lo": "0", "hi": "1/2", "slope": "2"}, {"lo": "1/2", "hi": "1", "slope": "-2", "intercept": "2"}),
]
FAST_CHECKS = [
    "01-tent-minimal-counts", "02-tent-minimal-small-sets", "07-witness-classes-forbidden",
    "08-peakless-avoider-counts", "09-single-length-budget", "10-peakless-obstruction",
    "13-monotone-classification",
]


def pool(*valid, edges=EDGES):
    """A valid value three times in four, else an edge value."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(edges if k == 3 else valid))


N = pool("8", "3", "1", "2", "5")
SMALL_N = pool("3", "1", "2", "5", edges=SMALL_EDGES)
MAP = pool(*MAPS)
PATTERNS = pool("132,231", "12", "1", "21;12", "321", "1x2", ",", "1,1", "3412")
CELL_BUDGET = pool("50", "2000", "1", edges=SMALL_EDGES)
NODE_BUDGET = pool("50", "2000", "1", edges=SMALL_EDGES)
FORMAT = pool("json", "csv")

# each subcommand's flags, each with its value pool
FLAGS = {
    "allowed": {"--map": MAP, "--n": N, "--cell-budget": CELL_BUDGET, "--format": FORMAT},
    "forbidden": {"--map": MAP, "--n": N, "--cell-budget": CELL_BUDGET, "--format": FORMAT},
    "basic": {"--map": MAP, "--n": N, "--cell-budget": CELL_BUDGET, "--format": FORMAT},
    "shortest": {"--map": MAP, "--n-max": N, "--cell-budget": CELL_BUDGET, "--format": FORMAT},
    "bound": {
        "--map": MAP, "--method": pool(*METHODS), "--orientation": pool(*ORIENTATIONS),
        "--format": FORMAT,
    },
    "avoiders": {"--patterns": PATTERNS, "--n": N, "--node-budget": NODE_BUDGET, "--format": FORMAT},
    "count": {"--patterns": PATTERNS, "--n": N, "--node-budget": NODE_BUDGET, "--format": FORMAT},
    "sample": {
        "--map": MAP, "--n": SMALL_N, "--grid": pool("50", "1", edges=SMALL_EDGES),
        "--random": pool("50", "0", edges=SMALL_EDGES), "--seed": pool("7"),
        "--tie-eps": pool("1e-9", "0.5"), "--scan-missing": pool("5", "3", "1", edges=SMALL_EDGES), "--format": FORMAT,
    },
    "check-basis": {"--patterns": PATTERNS, "--m-max": pool("1", "4"), "--format": FORMAT},
    "length-check": {"--lengths": pool("3,4", "6", "2,2,2", "3,x", ",", "2000"), "--format": FORMAT},
    "verify": {"--only": pool(*FAST_CHECKS), "--format": FORMAT},
}


# never left out: the default budgets and sample counts allow runs of many
# seconds (`allowed --map sawtooth:3 --n 12` walks for about 20 s under the
# default cell budget), and verify without --only runs its slow checks
ALWAYS = {"--cell-budget", "--node-budget", "--grid", "--random", "--only"}


def argv_of(command, draw):
    argv = [command]
    for flag, values in FLAGS[command].items():
        # a flag left out is a usage error when it is required, a default otherwise
        if flag in ALWAYS or draw(st.integers(0, 4)) < 4:
            argv += [flag, draw(values)]
    if command == "verify" and draw(st.booleans()):
        argv += ["--only", draw(pool(*FAST_CHECKS))]
    return argv


# 18 examples for each of the 11 subcommands: 198 in all
@pytest.mark.parametrize("command", list(FLAGS))
@settings(max_examples=18, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(data=st.data())
def test_every_argv_ends_in_a_contract_exit(command, data):
    argv = argv_of(command, data.draw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3) or (code == 1 and command == "verify"), (argv, code, err.getvalue())
    lines = err.getvalue().splitlines()
    if code in (2, 3) and not any(line.startswith("usage:") for line in lines):
        # raised after argparse: one diagnosis, no traceback
        assert len([line for line in lines if line.startswith("patlab:")]) == 1, (argv, lines)
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_reader_that_stops_early_ends_in_exit_2(fmt):
    """With PYTHONUNBUFFERED set, stdout writes straight to the pipe, so a
    write the pipe takes only in part must be finished or raise: a report
    cut short must not exit 0.  The report (the 8,192 valleys of length 14,
    about 300 KB) is far larger than a 64 KiB pipe."""
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    src = str(Path(patlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["avoiders", "--patterns", "132,231", "--n", "14", "--format", fmt]
    with subprocess.Popen([sys.executable, "-m", "patlab", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("patlab: "), err
