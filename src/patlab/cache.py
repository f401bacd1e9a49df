"""On-disk result cache for exact pattern sets.

Enabled by setting PATLAB_CACHE_DIR.  pattern_set() is the one place
that decides whether an entry is served.  Entries are named by the
SHA-256 of the key inputs (canonical map spec, operation name, n, engine
version).  Each entry is a record holding those inputs, the canonical
JSON of the result as its body, and the SHA-256 of that body.  An entry
is served only if it names the same inputs, its body matches the hash,
and the body parses as a pattern set of the requested n whose canonical
JSON is the stored body itself.  Any other entry (truncated, hand-edited,
nested too deep to decode, misplaced, noncanonical or with an n that is
no integer, such as 1e400) is recomputed and overwritten.  The hash catches corruption, not a writer who stores a
wrong result with a fresh hash, so the cache directory must be trusted.
Writes go through a temp file and rename, so a crashed run cannot leave
a truncated entry.

The CLI imports this module only in the exact pattern-set commands.
With no directory set, pattern_set() returns the computed result at
once: nothing is hashed or encoded, and hashlib is never loaded.
"""

from __future__ import annotations

import json
import os
import tempfile

from . import __version__
from .errors import PatlabError
from .perms import PatternSet

ENV_VAR = "PATLAB_CACHE_DIR"


def cache_dir() -> str | None:
    return os.environ.get(ENV_VAR) or None


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    import hashlib  # here, not at import: hashlib costs 3.5 MB of peak RSS

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None


def store(path: str, text: str) -> None:
    directory, tmp = os.path.dirname(path), None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:  # an unusable cache directory only costs the reuse
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _served(text: str, inputs: dict, n: int):
    """The decoded body of a cache entry that passes every check, or None."""
    try:
        record = json.loads(text)
        body = record["body"]
        if record["inputs"] != inputs or record["sha256"] != _sha256(body):
            return None
        result = json.loads(body)
        found = PatternSet.from_json(result)
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError, PatlabError):
        return None  # not a record, a body too deep to decode, or no pattern set
    # the hash shows the record is intact, not that its writer stored a
    # well-formed answer: serve only the canonical JSON of a length-n set
    if found.n != n or canonical_json(found.to_json()) != body:
        return None
    return result


def pattern_set(spec: dict, op: str, n: int, compute) -> dict:
    """The JSON of compute(), a length-n PatternSet, served from the cache when it can be."""
    directory = cache_dir()
    if directory is None:
        return compute().to_json()
    inputs = {"n": n, "op": op, "spec": spec, "version": __version__}
    path = os.path.join(directory, f"{_sha256(canonical_json(inputs))}.json")
    text = load(path)
    result = None if text is None else _served(text, inputs, n)
    if result is None:  # missing, corrupt, tampered or noncanonical: recompute and overwrite
        result = compute().to_json()
        body = canonical_json(result)
        store(path, canonical_json({"body": body, "inputs": inputs, "sha256": _sha256(body)}))
    return result
