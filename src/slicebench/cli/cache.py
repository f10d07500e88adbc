"""Content-addressed store for measure entries.

Keys hash the function's canonical bytes, the measure name, and the engine
version, so any engine change invalidates stale results.  Entries are the
exact JSON objects a fresh run would produce, so hits are byte-identical to
the run that filled them.  Each file stores its entry with the sha256 of the
entry's canonical JSON, and an entry whose digest does not match (a torn
write, a hand edit) reads as a miss; this catches corruption, not forgery.
A cache whose directory cannot be written warns once on stderr and then
runs as if absent: it only ever saves work.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import threading
from pathlib import Path
from typing import Any

from .. import ENGINE_VERSION
from ..errors import FormatError
from ..fileio import canonical_function_bytes, read_json
from ..slicecore import LabeledFunction

ENV_VAR = "SLICEBENCH_CACHE_DIR"


def default_cache_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "slicebench"


def _digest(entry: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()


class ResultCache:
    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.disabled = False

    def key(self, f: LabeledFunction, measure: str) -> str:
        h = hashlib.sha256()
        h.update(canonical_function_bytes(f))
        h.update(b"\0")
        h.update(measure.encode())
        h.update(b"\0")
        h.update(ENGINE_VERSION.encode())
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, f: LabeledFunction, measure: str) -> dict[str, Any] | None:
        if self.disabled:
            return None
        try:
            obj = read_json(self._path(self.key(f, measure)))
        except (OSError, FormatError):
            return None
        entry = obj.get("entry") if isinstance(obj, dict) else None
        intact = isinstance(entry, dict) and obj.get("sha256") == _digest(entry)
        return entry if intact else None

    def put(self, f: LabeledFunction, measure: str, entry: dict[str, Any]) -> None:
        if self.disabled:
            return
        path = self._path(self.key(f, measure))
        # one temp name per process and thread, so concurrent writers of a
        # key never write into each other's file
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            record = {"entry": entry, "sha256": _digest(entry)}
            tmp.write_text(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except OSError as e:
            self.disabled = True
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            warning = {"warning": "cache", "message": f"running without the result cache: {e}"}
            sys.stderr.write(json.dumps(warning, sort_keys=True) + "\n")
