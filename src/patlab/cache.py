"""On-disk result cache for exact pattern sets.

Enabled by setting PATLAB_CACHE_DIR.  Entries are keyed by the SHA-256 of
the key inputs (canonical map spec, operation name, n, engine version).
Each entry is a record holding those inputs, the canonical JSON of the
result as its body, and the SHA-256 of that body.  An entry is served
only if it names the same inputs and its body matches the hash, so a
truncated, hand-edited or misplaced entry is recomputed; the caller
checks that the body is a well-formed result.  The hash catches
corruption, not a writer who stores a wrong result with a fresh hash,
so the cache directory must be trusted.  Writes go
through a temp file and rename, so a crashed run cannot leave a
truncated entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

ENV_VAR = "PATLAB_CACHE_DIR"


def cache_dir() -> str | None:
    return os.environ.get(ENV_VAR) or None


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def key_inputs(spec: dict, op: str, n: int, version: str) -> dict:
    return {"n": n, "op": op, "spec": spec, "version": version}


def cache_key(inputs: dict) -> str:
    return _sha256(canonical_json(inputs))


def _path(directory: str, key: str) -> str:
    return os.path.join(directory, f"{key}.json")


def load(key: str) -> str | None:
    directory = cache_dir()
    if directory is None:
        return None
    try:
        with open(_path(directory, key), encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None


def store(key: str, text: str) -> None:
    directory = cache_dir()
    if directory is None:
        return
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, _path(directory, key))
    except OSError:  # an unusable cache directory only costs the reuse
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def fetch(inputs: dict):
    """The decoded body stored for these key inputs, or None.

    None also stands for an entry that fails its check: it must be a
    record naming the same key inputs, whose body matches its SHA-256.
    """
    text = load(cache_key(inputs))
    if text is None:
        return None
    try:
        record = json.loads(text)
        body = record["body"]
        if record["inputs"] != inputs or record["sha256"] != _sha256(body):
            return None
        return json.loads(body)
    except (ValueError, TypeError, KeyError, AttributeError):
        return None  # not a record, or a body that is not JSON


def keep(inputs: dict, body: str) -> None:
    """Store body, the canonical JSON of a result, as the record for inputs."""
    record = {"body": body, "inputs": inputs, "sha256": _sha256(body)}
    store(cache_key(inputs), canonical_json(record))
