"""The whole stdout, stderr and exit code of the command line, pinned.

Each case runs `patlab.cli.run` in process with the clock pinned, so
elapsed_ms reads 0.0 and each `verify` check 0.00 s, and with an
80-column terminal for --help.  The expected texts live in
cli_golden.json beside this file.  To record them again after a
deliberate change to the surface, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of cli_golden.json.
"""

import contextlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from patlab import cli, verify

GOLDEN = Path(__file__).with_name("cli_golden.json")

SUBCOMMANDS = [
    "allowed", "forbidden", "basic", "shortest", "bound", "avoiders", "count",
    "sample", "check-basis", "length-check", "verify",
]

SAMPLE = ["sample", "--map", "logistic:3.83", "--n", "4", "--grid", "3000", "--random", "3000",
          "--scan-missing", "8"]

CASES = {
    # one envelope per subcommand
    "allowed": ["allowed", "--map", "tent", "--n", "4"],
    "forbidden": ["forbidden", "--map", "tent", "--n", "4"],
    "basic": ["basic", "--map", "tent", "--n", "4"],
    "basic-note": ["basic", "--map", "logistic:4", "--n", "4"],
    "shortest": ["shortest", "--map", "sawtooth:3", "--n-max", "6"],
    "bound": ["bound", "--map", "alt_sawtooth:9"],
    "avoiders": ["avoiders", "--patterns", "132,231", "--n", "5"],
    "count": ["count", "--patterns", "132,231", "--n", "10"],
    "sample": SAMPLE,
    "check-basis": ["check-basis", "--patterns", "132,231", "--m-max", "4"],
    "length-check": ["length-check", "--lengths", "3,4"],
    "verify": ["verify", "--only", "09-single-length-budget"],
    # CSV renderings
    "basic-csv": ["basic", "--map", "tent", "--n", "4", "--format", "csv"],
    "sample-csv": [*SAMPLE, "--format", "csv"],
    "shortest-csv": ["shortest", "--map", "sawtooth:3", "--n-max", "6", "--format", "csv"],
    "check-basis-csv": ["check-basis", "--patterns", "132,231", "--m-max", "4", "--format", "csv"],
    "length-check-csv": ["length-check", "--lengths", "3,4", "--format", "csv"],
    "verify-csv": ["verify", "--only", "09-single-length-budget", "--format", "csv"],
    # usage errors and refusals
    "no-subcommand": [],
    "missing-flags": ["allowed"],
    "unknown-map": ["allowed", "--map", "nope", "--n", "3"],
    "over-budget": ["allowed", "--map", "sawtooth:4", "--n", "12"],
    "bad-lengths": ["length-check", "--lengths", "3,x"],
    "unknown-check": ["verify", "--only", "no-such-check"],
    # help texts
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in SUBCOMMANDS},
}


def run_pinned(argv, monkeypatch):
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 1.0))
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 1.0))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PATLAB_CACHE_DIR", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def test_cases_match_the_recording():
    assert list(json.loads(GOLDEN.read_text())) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_pinned(CASES[name], monkeypatch) == expected


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        recorded = {name: run_pinned(argv, mp) for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
