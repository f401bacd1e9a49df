"""What a fresh interpreter loads, and the public names it sees.

NumPy serves only the float sampler, and hashlib only the on-disk cache,
so the exact commands and a bare `import patlab` must load neither.  The
sampler draws its start points in NumPy core, so sampling loads neither
numpy.random nor hashlib beyond what `import numpy` itself loads.  Each
check starts its own interpreter: within this test session these modules
are long loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patlab

SRC = str(Path(patlab.__file__).resolve().parent.parent)
WATCHED = ("numpy", "hashlib")

PROBE = """
import contextlib, io, json, runpy, sys
before = set(sys.modules)
{body}
print(json.dumps({{
    "new": [m for m in {watched!r} if m in sys.modules and m not in before],
    "loaded": [m for m in {watched!r} if m in sys.modules],
}}))
"""

# `python -m patlab ARGV`, run so the probe can look at sys.modules afterwards
CLI_BODY = """
sys.argv = ["patlab", *{argv!r}]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_module("patlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, f"exit {{exc.code}}"
"""

EXACT_COMMANDS = [
    ["--version"],
    ["basic", "--map", "tent", "--n", "4"],
    ["allowed", "--map", "sawtooth:3", "--n", "4"],
    ["avoiders", "--patterns", "123", "--n", "5"],
    ["count", "--patterns", "123", "--n", "5"],
    ["shortest", "--map", "tent", "--n-max", "5"],
    ["bound", "--map", "alt_sawtooth:3"],
]


def probe(body: str, cache_dir=None, watched=WATCHED) -> dict:
    """Run body in a fresh interpreter: the watched modules it loaded, and all loaded."""
    env = {k: v for k, v in os.environ.items() if k != "PATLAB_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if cache_dir is not None:
        env["PATLAB_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body, watched=watched)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_probe(argv, cache_dir=None) -> dict:
    return probe(CLI_BODY.format(argv=argv), cache_dir)


def test_import_loads_neither():
    assert probe("import patlab")["new"] == []


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=lambda argv: argv[0])
def test_exact_commands_load_neither(argv):
    assert cli_probe(argv)["new"] == []


def test_cache_loads_hashlib_only_when_set(tmp_path):
    assert cli_probe(EXACT_COMMANDS[1], tmp_path)["new"] == ["hashlib"]
    assert list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--map", "logistic:3.7", "--n", "3", "--grid", "100", "--random", "100"],
        ["verify", "--only", "01-tent-minimal-counts"],
    ],
    ids=lambda argv: argv[0],
)
def test_float_commands_load_numpy(argv):
    assert "numpy" in cli_probe(argv)["loaded"]


def test_sampling_loads_no_numpy_random():
    # NumPy 1.x loads numpy.random within `import numpy`, so count from there
    body = "import numpy\nbefore = set(sys.modules)\n" + CLI_BODY.format(
        argv=["sample", "--map", "logistic:3.7", "--n", "5", "--seed", "3", "--scan-missing", "8"]
    ) + """
from patlab import NumericMap, SampleConfig, first_missing_cap, sampled_allowed
cfg = SampleConfig(grid_count=1000, random_count=1000, seed=2**64)
assert len(sampled_allowed(NumericMap.logistic(3.9), 6, cfg)) > 0
first_missing_cap(NumericMap.logistic(4.0), 9, cfg)
"""
    assert probe(body, watched=("numpy.random", "hashlib"))["new"] == []


@pytest.mark.parametrize("name", ["SampleConfig", "numeric"])
def test_numeric_names_load_numpy(name):
    found = probe(f"import patlab\nassert 'numpy' not in sys.modules\npatlab.{name}")
    assert "numpy" in found["loaded"]


def test_float_engine_loads_numpy():
    body = "from patlab import load_map_spec\nlm = load_map_spec('logistic:3.7')\n"
    assert "numpy" not in probe(body)["loaded"]
    assert "numpy" in probe(body + "lm.numeric()")["loaded"]


def test_public_names():
    body = """
import patlab
missing = [n for n in patlab.__all__ if not hasattr(patlab, n)]
assert not missing, f"unresolved: {missing}"
unlisted = sorted(set(patlab.__all__) - set(dir(patlab)))
assert not unlisted, f"not in dir(): {unlisted}"
assert "numeric" in dir(patlab)
namespace = {}
exec("from patlab import *", namespace)
unbound = [n for n in patlab.__all__ if namespace.get(n) is not getattr(patlab, n)]
assert not unbound, f"not bound by import *: {unbound}"
try:
    patlab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    probe(body)
