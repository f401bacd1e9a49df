"""Input guards that no other test reaches: each bad input ends in its own
diagnosis, an exit 2 with one `patlab:` line at the command line and the
library's error at the API."""

import json

import pytest

from patlab import (
    BadParameter,
    NumericMap,
    ParseError,
    PatternSet,
    PwlMap,
    ValidationError,
    all_perms,
    load_map_spec,
    verify,
)
from patlab.cli import run
from patlab.perms import check_perm


def basic(spec):
    """A command that only has to load the spec to fail."""
    return ["basic", "--map", spec, "--n", "3"]


def pwl(*pieces):
    return basic(json.dumps({"type": "pwl", "pieces": list(pieces)}))


HALF_OPEN = {"lo": "0", "hi": "1/2", "slope": "1", "hi_closed": False}
HALF_CLOSED = {"lo": "0", "hi": "1/2", "slope": "1", "hi_closed": True}
RIGHT_OPEN = {"lo": "1/2", "hi": "1", "slope": "1", "lo_closed": False}
RIGHT_CLOSED = {"lo": "1/2", "hi": "1", "slope": "1", "lo_closed": True}


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(pwl({"lo": "0", "hi": "1", "slope": "1", "lo_closed": 1}),
                     "field 'lo_closed' must be true or false", id="non-bool-flag"),
        pytest.param(pwl(3), "each piece must be a JSON object", id="piece-not-object"),
        pytest.param(basic('{"type": "sawtooth", "N": "3"}'), "field 'N' must be an integer",
                     id="string-N"),
        pytest.param(basic('{"type": "logistic", "r": "3.7"}'), "field 'r' must be a number",
                     id="string-r"),
        pytest.param(pwl(), "field 'pieces' must be a nonempty list", id="no-pieces"),
        pytest.param(pwl({"lo": "1", "hi": "0", "slope": "1"}),
                     "piece has lo > hi: 1 > 0", id="lo-above-hi"),
        pytest.param(pwl({"lo": "0", "hi": "0", "slope": "1", "hi_closed": False}),
                     "zero-length piece must be closed on both sides", id="open-point-piece"),
        pytest.param(pwl(HALF_CLOSED, RIGHT_CLOSED),
                     "overlap: both pieces own the point 1/2", id="point-owned-twice"),
        pytest.param(pwl(HALF_OPEN, RIGHT_OPEN),
                     "gap: no piece owns the point 1/2", id="point-owned-by-none"),
        pytest.param(["avoiders", "--patterns", "12", "--n", "0"], "n must be at least 1",
                     id="avoiders-n-0"),
        pytest.param(["count", "--patterns", "12", "--n", "0"], "n must be at least 1",
                     id="count-n-0"),
        pytest.param(["forbidden", "--map", "tent", "--n", "0"], "n must be at least 1",
                     id="forbidden-n-0"),
        pytest.param(["basic", "--map", "tent", "--n", "1"],
                     "basic forbidden patterns need n >= 2", id="basic-n-1"),
        pytest.param(["sample", "--map", "logistic:3.7", "--n", "3", "--scan-missing", "2"],
                     "n_max must be at least 3", id="scan-missing-2"),
    ],
)
def test_cli_guard(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"patlab: {message}"]


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: load_map_spec(3), ParseError,
                     "map spec must be a string or object, got int", id="spec-not-text"),
        pytest.param(lambda: PwlMap(()), ValidationError, "a map needs at least one piece",
                     id="map-without-pieces"),
        pytest.param(lambda: check_perm(()), BadParameter, "empty permutation", id="empty-perm"),
        pytest.param(lambda: all_perms(0), BadParameter, "n must be at least 1", id="all-perms-0"),
        pytest.param(lambda: PatternSet.from_perms(0, []), BadParameter,
                     "pattern length must be at least 1", id="pattern-set-0"),
        pytest.param(lambda: NumericMap(lambda x: 2 * x), ValidationError,
                     r"image escapes \[0,1\]", id="numeric-escapes"),
    ],
)
def test_api_guard(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_a_check_that_raises_is_a_failed_check(monkeypatch):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_REGISTRY", [("boom", boom)])
    (result,) = verify.run_all()
    assert (result.name, result.passed, result.detail) == ("boom", False, "raised RuntimeError: boom")
