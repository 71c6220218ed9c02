"""Versioned content-addressed JSON cache of search reports.

`kurihara search --cache-dir` is its one user: a finished search is the one
result worth keeping, and a hit is re-verified as `kurihara report` does.
Keys are SHA-256 hashes of a canonical JSON encoding of the inputs; entries
are written atomically (temp file + rename) so concurrent readers never see a
torn file.  Breaking schema changes bump SCHEMA_VERSION, which participates in
every key, invalidating old entries wholesale.
"""

import hashlib
import json
import os
import tempfile

SCHEMA_VERSION = 1


class JsonCache:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    @staticmethod
    def key(kind, payload):
        body = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": kind, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()

    def _path(self, key):
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key):
        path = self._path(key)
        try:
            with open(path) as f:
                entry = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        # a file that parses but is no entry of this schema is a miss too
        if (not isinstance(entry, dict) or entry.get("schema") != SCHEMA_VERSION
                or "value" not in entry):
            return None
        return entry["value"]

    def put(self, key, value):
        entry = {"schema": SCHEMA_VERSION, "key": key, "value": value}
        body = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(body)
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return key

