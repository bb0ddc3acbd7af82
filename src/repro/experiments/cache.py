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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

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


#: the descriptor keys holding a config, each named after the point's
#: attribute that holds it
_CONFIG_KEYS = ("system", "netcrafter", "scale")

class _ConfigEncoding(NamedTuple):
    """One config object converted once: its dict (read-only) and that
    dict's JSON, with sorted keys and in field order."""

    config: object
    as_dict: Dict[str, object]
    sorted_json: str
    json: str


#: ``id(config)`` -> its :class:`_ConfigEncoding`.  Keyed by identity:
#: configs are frozen, and equal configs whose fields differ in type
#: (``1``, ``1.0``, ``True``) serialize differently.  Each entry holds
#: its config, so no id is reused while the entry lives.
_config_encodings: Dict[int, _ConfigEncoding] = {}
_CONFIG_ENCODINGS_MAX = 256


def _config_encoding(config) -> _ConfigEncoding:
    entry = _config_encodings.get(id(config))
    if entry is None or entry.config is not config:
        as_dict = asdict(config)
        if len(_config_encodings) >= _CONFIG_ENCODINGS_MAX:
            _config_encodings.clear()
        entry = _config_encodings[id(config)] = _ConfigEncoding(
            config,
            as_dict,
            json.dumps(as_dict, sort_keys=True, default=_json_default),
            json.dumps(as_dict, default=_json_default),
        )
    return entry


def json_object(items: Iterable[Tuple[str, str]]) -> str:
    """The JSON object of ``(key, encoded value)`` pairs, in order: what
    ``json.dumps`` gives for a dict of those items with the default
    separators, so already encoded values are spliced, not re-encoded."""
    return "{" + ", ".join(f"{encode_basestring_ascii(key)}: {text}" for key, text in items) + "}"


def _scalar_json(value: object) -> str:
    """``json.dumps(value, default=_json_default)``, without its set-up
    for the strings and ints a descriptor holds."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, default=_json_default)


def _descriptor_json(point, descriptor: Dict[str, object], sort_keys: bool) -> str:
    """``json.dumps(descriptor, sort_keys=sort_keys, default=_json_default)``
    for ``point``'s descriptor, spliced from its configs' encodings."""
    def value_json(key: str) -> str:
        if key not in _CONFIG_KEYS:
            return _scalar_json(descriptor[key])
        encoding = _config_encoding(getattr(point, key))
        return encoding.sorted_json if sort_keys else encoding.json

    return json_object(
        (key, value_json(key)) for key in (sorted(descriptor) if sort_keys else descriptor)
    )


def point_identity(point) -> Tuple[Dict[str, object], str]:
    """``(descriptor, fingerprint)`` of a normalized point.

    The descriptor is :func:`point_descriptor`'s content, its configs'
    dicts shared with every point holding the same config object (treat
    it as read-only).  The fingerprint is the sha256 of
    ``json.dumps(descriptor, sort_keys=True, default=_json_default)``,
    composed from each config's sorted-key encoding: a sorted-key object
    is its sorted items, and a nested object encodes the same on its own.
    :class:`~repro.experiments.runner.ExperimentPoint` memoizes this as
    ``point.identity``; call :func:`fingerprint` instead.
    """
    descriptor = point_descriptor(point, lambda config: _config_encoding(config).as_dict)
    blob = _descriptor_json(point, descriptor, sort_keys=True)
    return descriptor, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint(point) -> str:
    """Stable content hash identifying one experiment point: the one
    fingerprint the campaign spec, the cache and the runner use,
    computed once per point (:func:`point_identity`)."""
    return point.identity[1]


class EncodedResult(NamedTuple):
    """A run result converted once: its :meth:`RunResult.to_dict` payload
    and that payload's JSON text, as a cache entry stores it."""

    payload: Dict[str, object]
    text: str


def encode_result(result) -> EncodedResult:
    """``result`` (a :class:`RunResult`) converted once; an
    :class:`EncodedResult` is returned as it is."""
    if isinstance(result, EncodedResult):
        return result
    payload = result.to_dict()
    return EncodedResult(payload, json.dumps(payload, default=_json_default))


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
        return Path(self._entry_file(key))

    def _entry_file(self, key: str) -> str:
        # a string path: an entry read (misses included) needs no pathlib
        return os.path.join(self.root, key[:2], key + ".json")

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
        path = self._entry_file(key)
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read())
            result = RunResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self._quarantine(Path(path))
            return None
        self.hits += 1
        return result

    def put(self, point, result: RunResult) -> None:
        """Persist ``result`` for ``point`` (atomic durable publish).

        Flush + fsync before the rename: without it a crash after
        ``os.replace`` could still surface a truncated entry once the
        page cache is lost, and :meth:`get`'s corruption recovery only
        helps when the torn file fails to parse.  The entry's key is the
        hash of the descriptor it stores, both read from the point
        (:attr:`~repro.experiments.runner.ExperimentPoint.identity`).
        ``result`` is a :class:`RunResult`, or the :class:`EncodedResult`
        of one when the caller keeps the encoding too.  The entry's bytes
        are ``json.dumps({"key", "point", "result"}, default=...)``.
        """
        descriptor, key = point.identity
        entry = json_object(
            (
                ("key", json.dumps(key)),
                ("point", _descriptor_json(point, descriptor, sort_keys=False)),
                ("result", encode_result(result).text),
            )
        )
        atomic_write_text(self.path_for(key), entry)
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
