"""Persistent, content-addressed cache of experiment results.

Every (workload, system, netcrafter, scale, seed) point is hashed into a
stable fingerprint over the *full* configuration content (every dataclass
field, not object identity), so a cache entry is valid exactly as long as
the configuration tuple it describes.  Results are stored as JSON via
:meth:`repro.stats.report.RunResult.to_dict`, one file per point, sharded
by fingerprint prefix.

``CACHE_FORMAT_VERSION`` is part of the fingerprint: bump it whenever the
simulator's observable output changes (new counters, semantic fixes), and
every stale entry silently becomes a miss instead of poisoning figures.

The cache directory defaults to ``$REPRO_CACHE_DIR`` or ``.repro_cache``
under the current directory; the experiment CLI enables it by default
(``--no-cache`` / ``--cache-dir`` override), while library callers opt in
through :class:`repro.experiments.runner.RunContext`'s ``cache``.

Beyond plain storage the cache directory doubles as the coordination
point for *concurrent* clients sharing it (several ``run_many``
processes, or the campaign server plus ad-hoc CLI runs):

* corrupt or truncated entries — e.g. a torn write from a
  pre-:mod:`repro.atomicio` cache dir — read as misses, are moved aside
  into ``quarantine/`` for post-mortem instead of being served or
  silently deleted, and are tallied in :attr:`ResultCache.corrupt`;
* :meth:`ResultCache.claim` hands exactly one process the right to
  execute a point while everyone else observes the in-flight marker and
  waits for the published result (:meth:`ResultCache.claim_state`),
  giving "exactly one execution per fingerprint" across process
  boundaries without a server in the loop.  :func:`acquire` is the one
  claim-or-follow step every front end takes per point.

Maintenance for long-lived deployments (the campaign server's cache
grows without bound otherwise) lives in this module's CLI::

    python -m repro.experiments.cache --info
    python -m repro.experiments.cache --prune-age 30
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.atomicio import TMP_SUFFIX, atomic_write_text, sweep_orphans
from repro.stats.report import RunResult

#: bump whenever simulator output changes for the same configuration
#: (2: LatencyStat cache payloads switched to histogram serialization;
#: 3: fault-injection stats block added to RunStats serialization;
#: 4: topology-zoo config fields + exact degraded-bandwidth busy time)
CACHE_FORMAT_VERSION = 4

#: shard subdirectories are two hex digits; quarantine/ and inflight/
#: live alongside them, so entry enumeration must match this shape only
_SHARD_GLOB = "[0-9a-f][0-9a-f]/*.json"


def _json_default(obj: object) -> object:
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


def point_descriptor(point, config_dict: Callable = asdict) -> Dict[str, object]:
    """The full configuration content of a normalized experiment point.

    ``point`` is any object with ``workload``, ``system``, ``netcrafter``,
    ``scale`` and ``seed`` attributes whose config objects are dataclasses
    (duck-typed to avoid a circular import with the runner).
    ``config_dict`` turns each config into its dict; it defaults to
    :func:`dataclasses.asdict`.
    """
    return {
        "format": CACHE_FORMAT_VERSION,
        "result_schema": RunResult.SCHEMA_VERSION,
        "workload": point.workload,
        "system": config_dict(point.system),
        "netcrafter": config_dict(point.netcrafter),
        "scale": config_dict(point.scale),
        "seed": point.seed,
    }


def point_descriptors(points: Iterable) -> List[Dict[str, object]]:
    """:func:`point_descriptor` of each of ``points``, converting each
    distinct config once.

    The points of one campaign share a handful of configs, and ``asdict``
    deep-copies every nested field, so converting each config once makes
    the descriptors several times cheaper.  Configs are matched by value
    *and* ``repr``: ``1``, ``1.0`` and ``True`` compare equal but
    serialize, and so fingerprint, differently.  A config with an
    unhashable field is converted every time.  The memo lives for this
    one call, and descriptors sharing a config share its dict, so treat
    the descriptors as read-only.
    """
    memo: Dict[Tuple[object, str], Dict[str, object]] = {}

    def config_dict(config) -> Dict[str, object]:
        key = (config, repr(config))
        try:
            cached = memo.get(key)
        except TypeError:
            return asdict(config)
        if cached is None:
            cached = memo[key] = asdict(config)
        return cached

    return [point_descriptor(point, config_dict) for point in points]


def descriptor_fingerprint(descriptor: Dict[str, object]) -> str:
    """The fingerprint of an already computed :func:`point_descriptor`."""
    blob = json.dumps(descriptor, sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint(point) -> str:
    """Stable content hash identifying one experiment point."""
    return descriptor_fingerprint(point_descriptor(point))


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache`` in the cwd."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


class ResultCache:
    """On-disk RunResult store keyed by configuration fingerprint."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: corrupt/truncated entries quarantined by :meth:`get`
        self.corrupt = 0
        # a writer that died between temp-write and rename left an orphan
        # ``*.tmp``; opening the cache is the one moment no writer can be
        # mid-publish, so sweep them here
        self.swept_orphans = sweep_orphans(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside for post-mortem instead of serving
        (or deleting) it; the slot is then free for a clean rewrite."""
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # cross-device or permission trouble: fall back to removal so
            # the bad entry at least cannot be served again
            try:
                path.unlink()
            except OSError:
                pass
        self.corrupt += 1

    def get(self, point) -> Optional[RunResult]:
        """The cached result for ``point``, or ``None`` on a miss.

        Unreadable or corrupt entries (interrupted writes from tools
        without atomic publishing, format drift) count as misses and are
        quarantined under ``quarantine/`` so they are rewritten cleanly
        while the evidence survives.
        """
        return self.get_by_key(fingerprint(point))

    def get_by_key(self, key: str) -> Optional[RunResult]:
        """:meth:`get` addressed by a precomputed fingerprint.

        The campaign journal records fingerprints, not full point
        objects, so restart recovery looks results up by key directly.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            result = RunResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(self, point, result: RunResult) -> None:
        """Persist ``result`` for ``point`` (atomic durable publish).

        Flush + fsync before the rename: without it a crash after
        ``os.replace`` could still surface a truncated entry once the
        page cache is lost, and :meth:`get`'s corruption recovery only
        helps when the torn file fails to parse.  The entry's key is the
        hash of the descriptor it stores, computed once.
        """
        descriptor = point_descriptor(point)
        key = descriptor_fingerprint(descriptor)
        path = self.path_for(key)
        payload = {"key": key, "point": descriptor, "result": result.to_dict()}
        atomic_write_text(path, json.dumps(payload, default=_json_default))
        self.writes += 1

    # -- in-flight execution claims -----------------------------------------
    #
    # Concurrent processes sharing this cache dir (parallel run_many
    # invocations, the campaign server next to ad-hoc CLI runs) use claim
    # files to elect exactly one executor per fingerprint.  A claim is a
    # file naming the holder's pid, published complete: it is written to
    # a temp file first and then hard-linked to the claim path, which
    # either succeeds atomically or fails because the point is already
    # being executed.  A waiter therefore never reads a half-written
    # claim (which would look stale and get a live claim unlinked).  The
    # holder publishes the result (atomic ``put``) *before* releasing, so
    # a waiter polling ``claim_state`` sees the result no later than the
    # release.  A claim whose pid is gone is stale (the holder crashed);
    # the first waiter to notice removes it and takes over.  The removal
    # has a benign race — two waiters can both observe the dead pid and
    # one may unlink a *fresh* claim re-created in between — whose worst
    # case is a duplicate execution of a deterministic point followed by
    # an idempotent atomic publish, never a wrong or torn result.

    @property
    def inflight_dir(self) -> Path:
        return self.root / "inflight"

    def _claim_path(self, key: str) -> Path:
        return self.inflight_dir / f"{key}.claim"

    def claim(self, key: str) -> bool:
        """Try to become the executor for ``key``; True when won.

        Winners must :meth:`release` (after publishing the result, or on
        failure) — ``try/finally`` at the call site.
        """
        path = self._claim_path(key)
        self.inflight_dir.mkdir(parents=True, exist_ok=True)
        body = json.dumps({"pid": os.getpid(), "time": time.time()}).encode("utf-8")
        while True:
            fd, tmp = tempfile.mkstemp(dir=self.inflight_dir, suffix=TMP_SUFFIX)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(body)
                os.link(tmp, path)
                return True
            except FileExistsError:
                if self.claim_state(key) != "stale":
                    return False
                try:
                    path.unlink()
                except OSError:
                    pass
            except FileNotFoundError:
                pass  # another process opening the cache swept our temp file
            finally:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def release(self, key: str) -> None:
        """Drop the in-flight claim for ``key`` (idempotent)."""
        try:
            self._claim_path(key).unlink()
        except OSError:
            pass

    def claim_state(self, key: str) -> str:
        """``"free"`` (no claim), ``"held"`` (live holder) or ``"stale"``.

        Stale means the claim file exists but its recorded pid is gone —
        the holder crashed between claim and release.  :meth:`claim`
        publishes claims complete, so an unreadable or torn claim file
        can only be debris from a crashed writer and also reads as stale.
        """
        path = self._claim_path(key)
        try:
            payload = json.loads(path.read_text())
            pid = int(payload["pid"])
        except FileNotFoundError:
            return "free"
        except (OSError, ValueError, KeyError, TypeError):
            return "stale"
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return "stale"
        except PermissionError:
            pass  # alive, owned by someone else
        return "held"

    # -- maintenance ---------------------------------------------------------

    def entry_paths(self) -> Iterator[Path]:
        """Every committed entry file (quarantine/in-flight excluded)."""
        if not self.root.is_dir():
            return iter(())
        return self.root.glob(_SHARD_GLOB)

    def info(self) -> Dict[str, object]:
        """Entry count/bytes plus quarantine and in-flight tallies."""
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        for path in self.entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            if oldest is None or stat.st_mtime < oldest:
                oldest = stat.st_mtime
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        inflight = (
            sum(1 for _ in self.inflight_dir.glob("*.claim"))
            if self.inflight_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_age_seconds": (
                max(0.0, time.time() - oldest) if oldest is not None else 0.0
            ),
            "quarantined": quarantined,
            "inflight_claims": inflight,
        }

    def prune_older_than(self, seconds: float) -> Dict[str, int]:
        """Remove entries last written more than ``seconds`` ago.

        Long-lived campaign deployments call this periodically; pruning a
        point only costs a re-execution on its next request, never a
        wrong answer, because entries are content-addressed.
        """
        cutoff = time.time() - seconds
        removed = 0
        freed = 0
        for path in list(self.entry_paths()):
            try:
                stat = path.stat()
                if stat.st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += stat.st_size
        return {"removed": removed, "freed_bytes": freed}

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in list(self.entry_paths()):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def acquire(cache, key: str) -> Tuple[str, Optional[RunResult]]:
    """One non-blocking claim-or-follow step for the point ``key``.

    Returns ``(status, result)``:

    * ``"hit"`` — the result was already published;
    * ``"peer"`` — this call won the claim, but a peer published the
      result between the miss and the win; the claim is released again
      and the peer's result is authoritative;
    * ``"owned"`` — this call holds the claim: execute, ``put``, then
      ``release``;
    * ``"busy"`` — a live peer holds the claim: wait, then step again.

    Only ``cache``'s public ``get_by_key``/``claim``/``release`` are
    called, so a delegating wrapper (timing or recording proxies) sees
    every read.  Waiting is the caller's business: the runner sleeps,
    the campaign server yields to its event loop.
    """
    result = cache.get_by_key(key)
    if result is not None:
        return "hit", result
    if not cache.claim(key):
        return "busy", None
    result = cache.get_by_key(key)
    if result is not None:
        cache.release(key)
        return "peer", result
    return "owned", None


def main(argv=None) -> int:
    """Cache-maintenance CLI: report size, prune old entries."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cache",
        description="Inspect and maintain the persistent result cache.",
    )
    parser.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--info",
        action="store_true",
        help="report entry count, total bytes, quarantine and claim tallies",
    )
    parser.add_argument(
        "--prune-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="remove entries last written more than DAYS days ago",
    )
    parser.add_argument(
        "--clear-quarantine",
        action="store_true",
        help="delete quarantined corrupt entries (after post-mortem)",
    )
    args = parser.parse_args(argv)
    if not args.info and args.prune_age is None and not args.clear_quarantine:
        parser.error("nothing to do: pass --info and/or --prune-age DAYS")
    if args.prune_age is not None and args.prune_age < 0:
        parser.error("--prune-age must be >= 0")

    cache = ResultCache(args.dir or default_cache_dir())
    if args.prune_age is not None:
        pruned = cache.prune_older_than(args.prune_age * 86400.0)
        print(
            f"pruned {pruned['removed']} entr{'y' if pruned['removed'] == 1 else 'ies'}"
            f" ({pruned['freed_bytes']} bytes) older than {args.prune_age:g} days"
        )
    if args.clear_quarantine:
        removed = 0
        if cache.quarantine_dir.is_dir():
            for path in list(cache.quarantine_dir.glob("*.json")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        print(f"cleared {removed} quarantined entr{'y' if removed == 1 else 'ies'}")
    if args.info:
        info = cache.info()
        print(f"cache root:       {info['root']}")
        print(f"entries:          {info['entries']}")
        print(f"total bytes:      {info['total_bytes']}")
        print(f"oldest entry age: {info['oldest_age_seconds'] / 86400.0:.2f} days")
        print(f"quarantined:      {info['quarantined']}")
        print(f"in-flight claims: {info['inflight_claims']}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
