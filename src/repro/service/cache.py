"""Content-addressed on-disk artifact cache for batch compilation.

Records are JSON documents keyed by the job's content digest
(:meth:`repro.service.jobs.CompileJob.cache_key`): source text +
virtual datasheet + scheduler options.  Layout::

    <root>/ab/abcdef....json

The two-character fan-out keeps directories small for large grids.
Writes go through a temporary file in the same directory followed by
``os.replace``, so concurrent writers (the executor's worker processes, or
several batch invocations sharing one cache) can never expose a torn
record; the worst case is both doing the same work and one rename winning.

The cache keeps hit/miss/put/evict accounting and supports a bounded
``max_entries`` with least-recently-used eviction: every ``get`` hit
touches the record's mtime, and eviction drops the oldest mtime first with
a deterministic filename tie-break (mtime granularity is coarse on some
filesystems, so equal-mtime victims must not depend on directory order).

:class:`ShardedArtifactCache` layers N independent shards over this store,
routed by content digest, each with its own eviction budget — the warm
tier the compile server serves thousands of concurrent clients from
(eviction pressure in one shard cannot wipe the whole working set).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import re
import tempfile
from typing import List, Optional

#: Keys are content digests; a key that could name a path component
#: (separators, dot segments) must never reach filesystem layout code.
_SAFE_KEY_RE = re.compile(r"[0-9a-zA-Z][0-9a-zA-Z_-]*")


@dataclasses.dataclass
class CacheStats:
    """Running accounting for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits, "misses": self.misses, "puts": self.puts,
            "evictions": self.evictions, "hit_rate": round(self.hit_rate, 4),
        }


class ArtifactCache:
    """A content-addressed store of JSON artifact records."""

    def __init__(self, root: os.PathLike,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- key/path mapping ---------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        if len(key) < 3:
            raise ValueError(f"cache key too short: {key!r}")
        if not _SAFE_KEY_RE.fullmatch(key):
            raise ValueError(f"unsafe cache key: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def _entries(self) -> List[pathlib.Path]:
        return [p for p in self.root.glob("*/*.json")]

    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    # -- lookup/store -------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the cached record for ``key`` or None on a miss.

        Unreadable/corrupt records (e.g. from a crashed writer on a
        filesystem without atomic rename) count as misses and are removed.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        # LRU touch: a hit refreshes the record's mtime so hot entries
        # survive `_evict_to` even when they were written long ago.
        with contextlib.suppress(OSError):
            os.utime(path, None)
        return record

    def put(self, key: str, record: dict) -> pathlib.Path:
        """Atomically store ``record`` under ``key``; returns its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(record, sort_keys=True, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        self.stats.puts += 1
        if self.max_entries is not None:
            self._evict_to(self.max_entries)
        return path

    # -- maintenance --------------------------------------------------------
    def _evict_to(self, limit: int) -> None:
        entries = self._entries()
        if len(entries) <= limit:
            return
        # LRU by mtime; the filename (== cache key) breaks ties so that
        # coarse-grained mtimes still evict deterministically.
        entries.sort(key=lambda p: (p.stat().st_mtime, p.name))
        for victim in entries[:len(entries) - limit]:
            victim.unlink(missing_ok=True)
            self.stats.evictions += 1

    def clear(self) -> int:
        """Remove every record; returns how many were dropped."""
        dropped = 0
        for entry in self._entries():
            entry.unlink(missing_ok=True)
            dropped += 1
        return dropped


class ShardedArtifactCache:
    """A digest-sharded warm cache tier over :class:`ArtifactCache`.

    Keys route to ``int(key[:8], 16) % shards``, so one content digest
    always lands in the same shard (stable across restarts and across
    processes sharing the directory).  Each shard is an independent
    :class:`ArtifactCache` under ``<root>/shard-NN`` with its own
    ``per_shard_entries`` eviction budget: hot traffic concentrated on a
    few digests can evict at most its own shard, and shards can be served
    concurrently without a global lock (disk writes are already atomic).

    Accounting aggregates across shards (plus per-shard breakdown via
    :meth:`stats_by_shard`) — the compile server folds it into
    ``/v1/metrics``.
    """

    def __init__(self, root: os.PathLike, shards: int = 8,
                 per_shard_entries: Optional[int] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = pathlib.Path(root)
        self.shards: List[ArtifactCache] = [
            ArtifactCache(self.root / f"shard-{index:02d}",
                          max_entries=per_shard_entries)
            for index in range(shards)
        ]

    def shard_for(self, key: str) -> ArtifactCache:
        if len(key) < 8:
            raise ValueError(f"cache key too short: {key!r}")
        return self.shards[int(key[:8], 16) % len(self.shards)]

    def get(self, key: str) -> Optional[dict]:
        return self.shard_for(key).get(key)

    def put(self, key: str, record: dict) -> pathlib.Path:
        return self.shard_for(key).put(key, record)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, key: str) -> bool:
        return key in self.shard_for(key)

    def clear(self) -> int:
        return sum(shard.clear() for shard in self.shards)

    @property
    def stats(self) -> CacheStats:
        """Aggregate accounting over every shard (fresh object per call)."""
        total = CacheStats()
        for shard in self.shards:
            total.hits += shard.stats.hits
            total.misses += shard.stats.misses
            total.puts += shard.stats.puts
            total.evictions += shard.stats.evictions
        return total

    def stats_by_shard(self) -> List[dict]:
        return [
            {"shard": index, "entries": len(shard),
             **shard.stats.to_dict()}
            for index, shard in enumerate(self.shards)
        ]

    def to_dict(self) -> dict:
        doc = self.stats.to_dict()
        doc["shards"] = len(self.shards)
        doc["entries"] = len(self)
        doc["by_shard"] = self.stats_by_shard()
        return doc
