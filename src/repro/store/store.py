"""Content-addressed on-disk store for simulation results.

Every artifact is addressed by the SHA-256 fingerprint of the experiment
payload that produced it (:mod:`repro.store.fingerprint`), so the store is a
*memo table for the simulator*: ask for a key, get back the exact result a
previous run persisted — bit-identically, because engines are deterministic
in their payload and the payload JSON is stored verbatim.

Layout (JSON envelopes, gzipped at rest)::

    <root>/
      artifacts/<k[:2]>/<key>.json.gz   # artifact envelopes, sharded by prefix
      campaigns/<id>.json               # campaign manifests

The artifact tree is the store's only state: a file's name is its key, its
size is the artifact's size and its mtime is the artifact's LRU stamp.  Every
write and every hit (hot or cold) stamps the file with the current time, so
:meth:`ResultStore.gc` in any process evicts what all processes used least
recently.  An ``index.json`` left by an older store is ignored.

The store is **tiered**: a bounded in-process LRU of deserialized envelopes
(the *hot* tier, ``hot_capacity`` entries, shared across threads) fronts the
gzipped JSON files (the *cold* tier).  Repeated reads of the same
key skip both the disk and the JSON parse.  Legacy plain ``<key>.json``
artifacts remain readable; new writes are always gzipped.
Gzip headers are written with ``mtime=0`` so identical envelopes produce
identical files.

Artifact envelopes carry ``schema`` and ``version`` fields; artifacts whose
schema does not match the store's raise :class:`~repro.errors.StoreError`
(the version in the message says which library wrote them), as do truncated
or unparsable files.  Canonical-store writers also record a ``witness``
(canonical → writer species naming, see :mod:`repro.store.canonical`) so
readers with different naming can translate the payload.

Multi-process contract: any number of processes may read, write, evict and
gc one directory at once, and threads may share one instance (the hot tier
sits behind an internal lock).  Writes are atomic (same-directory temp file
+ ``os.replace``), so a reader sees a whole artifact or none; a put killed
mid-write leaves only a ``*.tmp`` file, which every scan of the tree ignores;
an artifact that vanishes mid-scan (another process's gc) is skipped.  There
is no lock file and no journal.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import StoreError

__all__ = [
    "ARTIFACT_SCHEMA",
    "CAMPAIGN_SCHEMA",
    "ResultStore",
]

#: Schema tags of the store's on-disk documents.  Bump on incompatible
#: changes; artifacts written under a different tag are rejected on read.
ARTIFACT_SCHEMA = "repro.store.artifact/v1"
CAMPAIGN_SCHEMA = "repro.store.campaign/v1"

#: Schema tag of bare-ensemble payloads (RunResult/FspResult carry their own).
ENSEMBLE_SCHEMA = "repro.ensemble-result/v1"


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


class ResultStore:
    """Content-addressed artifact store with a cache API and LRU GC.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).
    hot_capacity:
        Size of the in-process hot tier — a bounded LRU of deserialized
        envelopes fronting the gzip files.  ``0`` disables it (every
        read hits the disk).  Hot entries are returned by reference; callers
        must treat envelopes as read-only (the store's own paths copy before
        rewriting).
    """

    def __init__(self, root: "str | Path", *, hot_capacity: int = 128) -> None:
        self.root = Path(root)
        self.hot_capacity = int(hot_capacity)
        self._lock = threading.RLock()
        # Hot tier: key -> deserialized envelope, most recent last.
        self._hot: "OrderedDict[str, dict]" = OrderedDict()
        self.root.mkdir(parents=True, exist_ok=True)

    # The lock cannot pickle; campaign/sweep workers get a fresh one.  The
    # hot tier is per-process state and restarts empty on the other side.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        del state["_hot"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._hot = OrderedDict()

    @classmethod
    def coerce(cls, store: "ResultStore | str | Path") -> "ResultStore":
        """Accept a store instance or a directory path."""
        if isinstance(store, cls):
            return store
        if isinstance(store, (str, Path)):
            return cls(store)
        raise StoreError(
            f"expected a ResultStore or a directory path, got {type(store).__name__}"
        )

    # -- paths -------------------------------------------------------------------

    def _artifact_dir(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed artifact key {key!r} (expected hex digest)")
        return self.root / "artifacts" / key[:2]

    def _artifact_path(self, key: str) -> Path:
        """The *write* path for ``key`` (always ``.json.gz``)."""
        return self._artifact_dir(key) / f"{key}.json.gz"

    def _artifact_candidates(self, key: str) -> "tuple[Path, Path]":
        """Both possible on-disk paths for ``key`` (``.json.gz`` first)."""
        directory = self._artifact_dir(key)
        return directory / f"{key}.json.gz", directory / f"{key}.json"

    def _artifact_files(self) -> "Iterator[tuple[str, Path]]":
        """``(key, path)`` for every artifact file in the tree.

        Only ``<key>.json.gz`` and legacy ``<key>.json`` names count, so the
        ``*.tmp`` left by a put killed mid-write is never taken for an
        artifact.  Keys are hex digests (no dots): the name up to the first
        dot is the key.
        """
        for path in (self.root / "artifacts").glob("*/*.json*"):
            if path.name.endswith((".json", ".json.gz")):
                yield path.name.split(".", 1)[0], path

    def _scan(self) -> "dict[str, tuple[int, int]]":
        """``key -> (mtime_ns, bytes)`` for every artifact on disk.

        A file that vanishes between listing and ``stat`` (another process's
        gc or evict) is skipped.  A key present under both extensions counts
        the bytes of both files and the newer stamp.
        """
        found: dict[str, tuple[int, int]] = {}
        for key, path in self._artifact_files():
            try:
                info = path.stat()
            except FileNotFoundError:
                continue
            stamp, size = found.get(key, (0, 0))
            found[key] = (max(stamp, info.st_mtime_ns), size + info.st_size)
        return found

    def _read_envelope(self, key: str) -> "dict | None":
        """Parse the on-disk envelope for ``key`` (``None`` when absent).

        Truncated or unparsable files raise :class:`StoreError` naming the
        file; so do envelopes of an incompatible schema.
        """
        for path in self._artifact_candidates(key):
            try:
                raw = path.read_bytes()
                if path.suffix == ".gz":
                    raw = gzip.decompress(raw)
                envelope = json.loads(raw)
            except FileNotFoundError:
                continue
            except (OSError, EOFError, zlib.error, ValueError) as exc:
                raise StoreError(f"corrupt artifact {path}: {exc}") from exc
            if not isinstance(envelope, dict):
                raise StoreError(f"corrupt artifact {path}: not a JSON object")
            if envelope.get("schema") != ARTIFACT_SCHEMA:
                raise StoreError(
                    f"artifact {key[:12]}… has schema {envelope.get('schema')!r}, "
                    f"incompatible with {ARTIFACT_SCHEMA!r} (written by repro "
                    f"version {envelope.get('version')!r}); evict it or migrate "
                    "the store"
                )
            return envelope
        return None

    def _stamp(self, key: str) -> None:
        """Mark ``key`` as used now: its file mtime is the LRU stamp gc reads.

        The stamp is the wall clock in nanoseconds rather than the kernel's
        coarser file clock, so back-to-back uses stay ordered.  Failures are
        ignored: a read-only store still serves, it only stops recording
        recency.  Runs on every hot hit, so it joins plain strings: ``key``
        was validated when it entered the hot tier or was read from disk.
        """
        now = time.time_ns()
        base = os.path.join(self.root, "artifacts", key[:2], key)
        for suffix in (".json.gz", ".json"):
            try:
                os.utime(base + suffix, ns=(now, now))
                return
            except OSError:
                continue

    # -- hot tier ----------------------------------------------------------------

    def _hot_get(self, key: str) -> "dict | None":
        if self.hot_capacity <= 0:
            return None
        with self._lock:
            envelope = self._hot.get(key)
            if envelope is not None:
                self._hot.move_to_end(key)
            return envelope

    def _hot_put_locked(self, key: str, envelope: dict) -> None:
        if self.hot_capacity <= 0:
            return
        self._hot[key] = envelope
        self._hot.move_to_end(key)
        while len(self._hot) > self.hot_capacity:
            self._hot.popitem(last=False)

    def _campaign_path(self, campaign_id: str) -> Path:
        safe = str(campaign_id)
        if not safe or any(c not in "0123456789abcdef-" for c in safe):
            raise StoreError(f"malformed campaign id {campaign_id!r}")
        return self.root / "campaigns" / f"{safe}.json"

    # -- artifact API ------------------------------------------------------------

    def put(
        self,
        key: str,
        result: Any,
        descriptor: "Mapping | None" = None,
        witness: "Mapping[str, str] | None" = None,
    ) -> dict:
        """Persist a result under ``key`` and return its envelope.

        ``result`` may be a :class:`~repro.api.results.RunResult`, a bare
        :class:`~repro.sim.ensemble.EnsembleResult` or an
        :class:`~repro.sim.fsp.FspResult`; the envelope records which, plus
        the library version and the experiment ``descriptor`` (provenance).
        ``witness`` maps canonical species names to the writer's naming
        (:mod:`repro.store.canonical`) so readers that address the same
        isomorphism class under different naming can translate the payload.
        Re-putting an existing key overwrites idempotently.
        """
        from repro import __version__

        kind, payload = _result_to_payload(result)
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "version": __version__,
            "key": key,
            "kind": kind,
            "label": _label_of(result),
            "engine": getattr(result, "engine", None),
            "descriptor": dict(descriptor) if descriptor is not None else None,
            "witness": dict(witness) if witness is not None else None,
            "payload": payload,
        }
        # mtime=0 keeps the gzip bytes a pure function of content.
        data = gzip.compress(json.dumps(envelope, indent=2).encode("utf-8"), mtime=0)
        path, legacy = self._artifact_candidates(key)
        _atomic_write_bytes(path, data)
        self._stamp(key)
        # Drop a legacy plain .json copy so reads (which prefer .json.gz) and
        # size accounting never see two.
        legacy.unlink(missing_ok=True)
        with self._lock:
            self._hot_put_locked(key, envelope)
        return envelope

    def get_envelope(self, key: str) -> "dict | None":
        """The artifact envelope for ``key``, or ``None`` on a miss.

        The hot tier answers first (no disk, no JSON parse); cold reads try
        the ``.json.gz`` file, then the legacy plain ``.json`` one, validate the
        envelope (rejecting artifacts written by an incompatible library
        with a :class:`StoreError` naming the writing version), and promote
        it into the hot tier.  Every hit stamps the artifact file's mtime,
        which is what :meth:`gc` orders by in any process.  Returned
        envelopes must be treated as read-only.
        """
        envelope = self._hot_get(key)
        if envelope is None:
            envelope = self._read_envelope(key)
            if envelope is None:
                return None
            with self._lock:
                self._hot_put_locked(key, envelope)
        self._stamp(key)
        return envelope

    def get(self, key: str) -> Any:
        """Load and reconstruct the result stored under ``key`` (or ``None``)."""
        envelope = self.get_envelope(key)
        if envelope is None:
            return None
        return _result_from_payload(envelope.get("kind"), envelope["payload"])

    def load_run(self, key: str):
        """A cached :class:`~repro.api.results.RunResult`, or ``None`` on a miss.

        Raises :class:`StoreError` when the key holds a different artifact
        kind — a fingerprint collision between result kinds means the caller
        mixed key namespaces, which should never pass silently.
        """
        envelope = self.get_envelope(key)
        if envelope is None:
            return None
        if envelope.get("kind") != "run-result":
            raise StoreError(
                f"artifact {key[:12]}… holds a {envelope.get('kind')!r}, "
                "not a run-result"
            )
        return _result_from_payload("run-result", envelope["payload"])

    def has(self, key: str) -> bool:
        """Whether ``key`` is present (no access-stamp update, no validation)."""
        if self.hot_capacity > 0:
            with self._lock:
                if key in self._hot:
                    return True
        return any(path.exists() for path in self._artifact_candidates(key))

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self.has(key)

    def keys(self) -> list[str]:
        """All stored artifact keys (sorted)."""
        return sorted({key for key, _ in self._artifact_files()})

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def evict(self, key: str) -> bool:
        """Remove one artifact; returns whether a file was deleted."""
        removed = False
        with self._lock:
            self._hot.pop(key, None)
            for path in self._artifact_candidates(key):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed = True
        return removed

    def gc(
        self,
        max_artifacts: "int | None" = None,
        max_bytes: "int | None" = None,
    ) -> list[str]:
        """Evict least-recently-used artifacts down to the given limits.

        Recency is the artifact file's mtime, stamped by every put and hit
        in any process; ties break by key.  With no limit given nothing is
        evicted.  Several processes may gc one directory at once: an
        artifact another process removed first is skipped.  Returns the keys
        this call evicted, oldest first.
        """
        found = self._scan()
        count = len(found)
        total_bytes = sum(size for _, size in found.values())
        evicted: list[str] = []
        for key in sorted(found, key=lambda k: (found[k][0], k)):
            if not (
                (max_artifacts is not None and count > max_artifacts)
                or (max_bytes is not None and total_bytes > max_bytes)
            ):
                break
            count -= 1
            total_bytes -= found[key][1]
            if self.evict(key):
                evicted.append(key)
        return evicted

    def stats(self) -> dict:
        """Aggregate store statistics (artifact count, bytes, campaigns)."""
        found = self._scan()
        return {
            "root": str(self.root),
            "artifacts": len(found),
            "bytes": sum(size for _, size in found.values()),
            "campaigns": len(self.campaign_ids()),
        }

    # -- campaign manifests ------------------------------------------------------

    def save_campaign(self, manifest: Mapping) -> dict:
        """Persist a campaign manifest (keyed by its ``id`` field)."""
        from repro import __version__

        document = dict(manifest)
        if not document.get("id"):
            raise StoreError("campaign manifest has no 'id' field")
        document["schema"] = CAMPAIGN_SCHEMA
        document["version"] = __version__
        with self._lock:
            _atomic_write(
                self._campaign_path(document["id"]),
                json.dumps(document, indent=2, sort_keys=True),
            )
        return document

    def load_campaign(self, campaign_id: str) -> "dict | None":
        """Load a campaign manifest by id, or ``None`` when absent."""
        path = self._campaign_path(campaign_id)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt campaign manifest {path}: {exc}") from exc
        if manifest.get("schema") != CAMPAIGN_SCHEMA:
            raise StoreError(
                f"campaign manifest {campaign_id!r} has schema "
                f"{manifest.get('schema')!r}, incompatible with "
                f"{CAMPAIGN_SCHEMA!r} (written by repro version "
                f"{manifest.get('version')!r})"
            )
        return manifest

    def campaign_ids(self) -> list[str]:
        """Ids of all persisted campaign manifests (sorted)."""
        campaigns_dir = self.root / "campaigns"
        if not campaigns_dir.is_dir():
            return []
        return sorted(path.stem for path in campaigns_dir.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"


# ---------------------------------------------------------------------------
# result object <-> (kind, payload)
# ---------------------------------------------------------------------------


def _result_to_payload(result: Any) -> "tuple[str, dict]":
    from repro.api.results import RunResult, ensemble_to_payload
    from repro.sim.ensemble import EnsembleResult
    from repro.sim.fsp import FspResult

    if isinstance(result, RunResult):
        return "run-result", result.to_payload()
    if isinstance(result, FspResult):
        return "fsp-result", result.to_payload()
    if isinstance(result, EnsembleResult):
        from repro import __version__

        payload = {"schema": ENSEMBLE_SCHEMA, "version": __version__}
        payload.update(ensemble_to_payload(result))
        return "ensemble-result", payload
    raise StoreError(
        f"cannot store a {type(result).__name__}; expected RunResult, "
        "EnsembleResult or FspResult"
    )


def _result_from_payload(kind: "str | None", payload: Mapping) -> Any:
    from repro.api.results import RunResult, ensemble_from_payload
    from repro.sim.fsp import FspResult

    if kind == "run-result":
        return RunResult.from_payload(payload)
    if kind == "fsp-result":
        return FspResult.from_payload(payload)
    if kind == "ensemble-result":
        if payload.get("schema") != ENSEMBLE_SCHEMA:
            raise StoreError(
                f"unrecognized ensemble payload schema {payload.get('schema')!r}; "
                f"expected {ENSEMBLE_SCHEMA!r}"
            )
        return ensemble_from_payload(payload)
    raise StoreError(f"unknown artifact kind {kind!r}")


def _label_of(result: Any) -> "str | None":
    label = getattr(result, "label", None)
    return str(label) if label is not None else None
