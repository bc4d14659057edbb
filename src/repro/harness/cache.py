"""Content-addressed on-disk store for sweep cell results.

Every cell of a sweep — one ``run_one(x, seed)`` evaluation — is a pure
function of the experiment name, the task configuration, the grid
point, and the seed.  That makes its result safely cacheable under a
stable content hash of exactly those inputs: repeated sweeps (and CI
re-runs of the benchmark suite) skip every cell they have already
computed, while *any* change to the configuration changes the key and
transparently invalidates the entry.

Records are small JSON files sharded into two-level subdirectories
(``<root>/<key[:2]>/<key>.json``) so a cache of tens of thousands of
cells stays friendly to ordinary filesystems.  Writes are atomic
(temp file + :func:`os.replace`), so a sweep interrupted mid-write
never leaves a truncated record behind.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..core.errors import AnalysisError
from ..faults import fault_point

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "RESULT_CODE_VERSION",
    "fingerprint_of",
    "canonical_json",
    "cell_key",
    "CellRecord",
    "ResultCache",
]

_KEY_BYTES = 16

#: Hashed into every cell key.  Bumped whenever key derivation or the
#: record layout changes incompatibly; old-schema entries then simply
#: never hit.  History: 1 = PR 1 layout; 2 = seed labels normalize grid
#: values with float(x) exactly like the key does (entries cached under
#: schema 1 may have been computed under seeds derived from the raw,
#: unnormalized grid value, so they cannot be trusted); 3 = duplicate
#: grid values derive per-occurrence seed labels (repeated points used
#: to alias one seed list — and hence one set of cache cells — so any
#: entry touched by a duplicated grid under schema 2 may hold an
#: aliased copy rather than an independent repetition); 4 = the
#: Scenario API redesign keys sweep cells by Scenario.to_dict() (config
#: + network + schedule + attack) instead of a flat GossipConfig dict
#: that still carried execution fields — same physics, incompatible
#: fingerprint shape; 5 = gossip sweep fingerprints carry the resolved
#: partner model ("pairing": "uniform" for shards == 0, "cells"
#: otherwise) — schema-4 keys served one model's cells to the other.
CACHE_SCHEMA_VERSION = 5

#: Stamped into every record and checked on read.  Identifies the
#: simulator code generation that produced the value: bump it to bulk-
#: invalidate everything cached by earlier code (e.g. results computed
#: by the set backend before the bitset backend existed), without
#: having to find and delete the stale files.
RESULT_CODE_VERSION = "2-bitset"


def fingerprint_of(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable structure for hashing.

    Dataclasses become ``{"<qualified name>": {field: ...}}`` so two
    config classes with coincidentally equal fields never collide;
    enums become their values; tuples become lists.  Anything else must
    already be JSON-serializable.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: fingerprint_of(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {f"{type(obj).__module__}.{type(obj).__qualname__}": fields}
    if isinstance(obj, enum.Enum):
        return fingerprint_of(obj.value)
    if isinstance(obj, (list, tuple)):
        return [fingerprint_of(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): fingerprint_of(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise AnalysisError(
        f"cannot fingerprint {type(obj).__name__!r} for cache keying"
    )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cell_key(experiment: str, fingerprint: Any, x: float, seed: int) -> str:
    """Stable content hash identifying one sweep cell."""
    payload = canonical_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "experiment": experiment,
            "fingerprint": fingerprint_of(fingerprint),
            "x": float(x),
            "seed": int(seed),
        }
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=_KEY_BYTES)
    return digest.hexdigest()


@dataclass(frozen=True)
class CellRecord:
    """One cached cell result.

    ``value`` may legitimately be None (``run_one`` dropped the
    sample), which is why cache lookups return a record object rather
    than the bare value: a missing entry and a cached None must stay
    distinguishable.  ``version`` records which code generation
    produced the value (see :data:`RESULT_CODE_VERSION`).
    """

    value: Optional[float]
    experiment: str
    x: float
    seed: int
    created: float
    version: str = RESULT_CODE_VERSION


class _StaleRecord(ValueError):
    """A structurally valid record from a different code generation."""


class ResultCache:
    """A directory of content-addressed sweep cell records.

    Parameters
    ----------
    root:
        Directory to store records under; created lazily on first
        write.  Two caches pointed at the same directory share entries.
    max_entries:
        When set, cap the store at this many records: every write that
        pushes the count over the cap evicts the least-recently-*used*
        records (reads refresh a record's timestamp).  None (the
        default) keeps the store unbounded.  The count is tracked per
        cache object; two live caches sharing a directory may
        transiently overshoot the cap until one of them writes.
    """

    def __init__(
        self, root: Union[str, Path], max_entries: Optional[int] = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise AnalysisError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self.root = Path(root)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantines = 0
        self._count: Optional[int] = None

    def path_for(self, key: str) -> Path:
        """Where the record for ``key`` lives on disk."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CellRecord]:
        """Return the cached record for ``key``, or None on a miss.

        Never raises out of a sweep.  A record stamped by a different
        code generation is deleted (stale, by design — see
        :data:`RESULT_CODE_VERSION`); a *corrupt* record (truncated,
        torn, hand-edited, garbage JSON — i.e. something went wrong on
        disk) is quarantined under a ``*.corrupt`` name with a warning,
        so the evidence survives for diagnosis while the slot recomputes
        cleanly.  A hit refreshes the record's timestamp, which is what
        the LRU eviction orders by.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            value = raw["value"]
            if not (
                value is None
                or (isinstance(value, (int, float)) and not isinstance(value, bool))
            ):
                raise TypeError(f"bad cached value {value!r}")
            version = str(raw["version"])
            if version != RESULT_CODE_VERSION:
                raise _StaleRecord(f"stale record version {version!r}")
            record = CellRecord(
                value=value if value is None else float(value),
                experiment=str(raw["experiment"]),
                x=float(raw["x"]),
                seed=int(raw["seed"]),
                created=float(raw["created"]),
                version=version,
            )
        except FileNotFoundError:
            self.misses += 1
            return None
        except _StaleRecord:
            path.unlink(missing_ok=True)
            if self._count is not None and self._count > 0:
                self._count -= 1
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        try:
            os.utime(path, None)  # mark as recently used for LRU ordering
        except OSError:  # pragma: no cover - racing eviction/cleanup
            pass
        self.hits += 1
        return record

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a corrupt record aside (``*.corrupt``) and warn.

        The rename takes the file out of :meth:`keys` (which globs
        ``*.json``) without destroying the evidence; if even the rename
        fails the record is deleted — a sweep must never die on a bad
        cache file.
        """
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            path.unlink(missing_ok=True)
            quarantined = None
        if self._count is not None and self._count > 0:
            self._count -= 1
        self.quarantines += 1
        destination = (
            f"quarantined as {quarantined.name}"
            if quarantined is not None
            else "deleted"
        )
        warnings.warn(
            f"corrupt cache record {path.name} "
            f"({type(reason).__name__}: {reason}); {destination}",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(
        self,
        key: str,
        value: Optional[float],
        experiment: str,
        x: float,
        seed: int,
    ) -> CellRecord:
        """Atomically persist one cell result under ``key``.

        When ``max_entries`` is set and the write pushes the store over
        the cap, the least-recently-used surplus records are evicted.
        """
        record = CellRecord(
            value=None if value is None else float(value),
            experiment=experiment,
            x=float(x),
            seed=int(seed),
            created=time.time(),  # lotus: ignore[DET003] cache-record LRU metadata, not simulation state
        )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(dataclasses.asdict(record), sort_keys=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        fresh = not path.exists()
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp_name, path)
            # Injection site for the chaos suite: tears the *committed*
            # record, exactly the damage a crashed host leaves behind.
            fault_point("cache:record", path=str(path))
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:
                pass
            raise
        if self.max_entries is not None:
            if self._count is None:
                self._count = len(self)
            elif fresh:
                self._count += 1
            if self._count > self.max_entries:
                self._evict_lru()
        return record

    def _evict_lru(self) -> None:
        """Delete the least-recently-used records beyond ``max_entries``."""
        entries = []
        for key in self.keys():
            record_path = self.path_for(key)
            try:
                entries.append((record_path.stat().st_mtime, record_path))
            except OSError:  # pragma: no cover - racing writer/cleaner
                continue
        excess = len(entries) - self.max_entries
        if excess > 0:
            entries.sort(key=lambda entry: entry[0])
            for _, record_path in entries[:excess]:
                record_path.unlink(missing_ok=True)
                self.evictions += 1
        self._count = min(len(entries), self.max_entries)

    def keys(self) -> Iterator[str]:
        """Iterate over all record keys currently on disk."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                # Path.glob("*.json") matches dotfiles too; skip any
                # orphaned .tmp-* left by a killed writer.
                if path.name.startswith("."):
                    continue
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            self.path_for(key).unlink(missing_ok=True)
            removed += 1
        self._count = 0
        return removed

    def stats(self) -> Dict[str, int]:
        """Lifetime hit/miss/eviction counters for this cache object."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "quarantines": self.quarantines,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
