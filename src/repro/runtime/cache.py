"""Content-addressed cache of optimal-configuration search results.

Every sweep in this repo (Figs. 4, 5, A3–A6 and the CLI's ``scaling`` /
``systems`` / ``speedup`` commands) is a batch of independent
:func:`repro.core.search.find_optimal_config` calls, and different sweeps
frequently revisit identical points — e.g. the Fig. 4 scaling curve and the
Fig. 5 system grid both solve GPT3-1T on B200-NVS8 at the same GPU counts.

:class:`SearchCache` memoizes those solves.  Each :class:`SearchTask` is
fingerprinted by the SHA-256 of the canonical JSON of **all** of its inputs
(model hyper-parameters, full system spec, GPU count, global batch,
strategy, search-space knobs, modeling options, top-k), so any change to any
input — even a single bandwidth number of a synthetic heatmap GPU — misses
the cache instead of returning a stale result.

In memory an entry is the result object itself, shared by every hit.  On
disk the cache is an append-only JSON-lines journal: a
``{"version": 11}`` header, then one compact line per entry
(``{"entry": fp, "result": ...}``) or hint record
(``{"hint": key, "record": ...}``).  A save appends only the records put
since the previous save, so its cost is O(new records) however large the
file grows; a replayed entry is decoded back into its result tree
(:mod:`repro.utils.serialization`) on its first hit and kept decoded.
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.core.parallelism.base import ParallelConfig
from repro.core.search import MAX_WARM_HINTS, TRAINING_OBJECTIVE, SearchResult
from repro.utils.serialization import (
    canonical_fingerprint,
    dataclass_from_jsonable,
    to_jsonable,
)

#: Bump when the fingerprint recipe or the stored result schema changes;
#: persisted caches with a different version are discarded on load.
#: v2: ParallelConfig gained ``expert_parallel`` and the model gained the
#: GQA/MoE scenario fields.
#: v3: the cost-plan IR — ParallelConfig gained ``schedule``/``virtual_stages``,
#: SearchSpace gained the schedule axes, IterationEstimate carries its
#: ExecutionPlan, and SearchStatistics gained the memoization counters.
#: v4: pluggable evaluation backends — the fingerprint includes the task's
#: ``backend`` (an analytic and a simulated solve of the same point must
#: never collide) and IterationEstimate/ExecutionPlan record theirs.
#: v5: the inference-serving mode — the fingerprint includes the task's
#: ``objective`` and ``serving`` spec, and serving-objective entries rebuild
#: into :class:`~repro.core.inference.ServingSearchResult` trees.
#: v6: vectorized evaluation — the fingerprint includes the task's
#: ``eval_mode``.  Scalar and batch solves of the same point select the same
#: optimum, but their diagnostics-only work counters may differ, so the
#: entries must not collide.
#: v7: warm-started search — the persisted file gains a ``"hints"`` section
#: (the structure-keyed winner index, see :func:`reduced_fingerprint`).  The
#: *exact* fingerprint recipe is unchanged on purpose: a task's ``warm_hints``
#: are an optimization input, not a search input — they provably do not
#: change the selected optimum — so they must not (and do not) enter the
#: cache identity.
#: v8: multi-objective search — the fingerprint includes the task's
#: ``objectives`` tuple (a Pareto solve and a scalar solve of the same point
#: store different result trees and must never collide), and
#: :meth:`SearchCache.warm_hints` gained a deterministic final tie-break, so
#: hint order no longer depends on recording order at equal distance.
#: v9: the file is an append-only JSON-lines journal (a version header, then
#: one entry or hint record per line) instead of one JSON document rewritten
#: on every save.  A v8 file is ignored and replaced by the first save.
#: v10: the fingerprint drops ``eval_mode``.  The runtime picks the pricer
#: from the backend (batch for the analytic one), so a task no longer names
#: one.  A v9 journal loads empty and is replaced by the first save.
#: Still v10 after ``SearchStatistics`` dropped ``shared_incumbent_prunes``:
#: the fingerprint recipe and every stored answer are unchanged, and
#: ``dataclass_from_jsonable`` ignores keys a dataclass no longer has, so an
#: entry that still carries the counter loads and hits.
#: v11: ``ModelingOptions`` names the ZeRO stage once, as ``zero_stage``
#: (default 1); the legacy boolean flag and the unset stage are gone, so
#: every fingerprint's ``options`` changes.  A v10 journal loads empty and
#: is replaced by the first save.
CACHE_FORMAT_VERSION = 11

#: First line of every journal; a file that does not start with it is
#: another format (or garbage) and loads as empty.
_HEADER = json.dumps({"version": CACHE_FORMAT_VERSION}).encode() + b"\n"

#: Winner records kept per reduced key; the oldest are evicted first.  A
#: sweep along one axis revisits the same reduced key once per point, so a
#: few dozen records cover every realistic neighborhood.
_MAX_HINTS_PER_KEY = 64


def reduced_fingerprint(task: "SearchTask") -> str:  # noqa: F821 (doc reference)
    """Structure key of ``task``: the fingerprint minus the *point* inputs.

    Two tasks share a reduced key when they search the same model / system /
    strategy / space / options / backend / objective but at a different
    point along a sweep or traffic axis — a different ``n_gpus``,
    ``global_batch_size`` or serving arrival rate.  Winners recorded under
    one reduced key are therefore exactly the candidates worth re-evaluating
    first at any other point of the same structure (warm starting).

    ``top_k`` is also dropped: it does not change which configuration
    wins.
    """
    serving = to_jsonable(getattr(task, "serving", None))
    if isinstance(serving, dict):
        serving = {k: v for k, v in serving.items() if k != "arrival_rate"}
    return canonical_fingerprint(
        {
            "hint_index": CACHE_FORMAT_VERSION,
            "model": to_jsonable(task.model),
            "system": to_jsonable(task.system),
            "strategy": task.strategy,
            "space": to_jsonable(task.space),
            "options": to_jsonable(task.options),
            "backend": task.backend,
            "objective": getattr(task, "objective", TRAINING_OBJECTIVE),
            "serving": serving,
        }
    )


def _encode(kind: str, key: str, value: Any) -> bytes:
    """One journal line: compact, key-sorted JSON (the C encoder) plus ``\\n``.

    ``kind`` is ``"entry"`` (``key`` a fingerprint, ``value`` a result
    object or its JSON form) or ``"hint"`` (``key`` a reduced fingerprint,
    ``value`` a winner record).  A result is serialized here, only when its
    line is written.
    """
    if kind == "entry":
        record = {"entry": key, "result": value if isinstance(value, dict) else to_jsonable(value)}
    else:
        record = {"hint": key, "record": value}
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _decode(line: bytes) -> Any:
    """The record one journal line holds, or ``None`` when it is not JSON."""
    try:
        return json.loads(line)
    except ValueError:
        return None


class SearchCache:
    """In-memory, optionally journal-persisted store of solved search points.

    Parameters
    ----------
    path:
        Optional journal file backing the cache.  When given and the file
        exists, its records are replayed eagerly; :meth:`save` appends the
        records put since the previous save.  A file that does not start
        with the :data:`CACHE_FORMAT_VERSION` header (an older format, or
        garbage) is treated as empty and replaced by the first save.

    A single instance is safe to share between threads (the long-running
    API server keeps one process-wide cache hot across concurrent
    requests): every lookup, store, counter update and every save run
    under one process-local lock.  Across processes, :meth:`save` appends
    under an exclusive file lock, as documented there.

    Results are shared, not copied: :meth:`get` returns the object
    :meth:`put` stored (or the one tree decoded from the file), so callers
    must treat results as immutable.
    """

    def __init__(self, path: str | Path | None = None):
        self.path: Optional[Path] = Path(path) if path is not None else None
        # Fingerprint -> result object, or the JSON form of an entry
        # replayed from the journal and not yet hit (decoded once by get()).
        self._entries: Dict[str, Any] = {}
        # Structure-keyed hint index: reduced fingerprint -> list of winner
        # records ({n_gpus, global_batch_size, arrival_rate, config}).  Fed
        # by put(), consumed by warm_hints(), persisted alongside the exact
        # entries so a restarted API process warm-starts from its history.
        self._hints: Dict[str, List[Dict[str, Any]]] = {}
        # Records put since the last save, as _encode() arguments.
        self._unsaved: List[Tuple[str, str, Any]] = []
        # The journal as last replayed: a read descriptor, the bytes of
        # complete lines consumed, the record lines among them, and whether
        # the file must be rewritten (a foreign header or a malformed line).
        # The descriptor is held open because a file system may give a
        # replaced file's inode number to the next new file (ext4 does), so
        # comparing bare inode numbers could mistake a twice-compacted
        # journal for the one already read.
        self._fd: Optional[int] = None
        self._offset = 0
        self._lines = 0
        self._stale = False
        self.hits = 0
        self.misses = 0
        # Reentrant so a subclass hook running under the lock can still use
        # get/put.
        self._lock = threading.RLock()
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(task: "SearchTask") -> str:  # noqa: F821 (doc reference)
        """Content hash of every search input of ``task``."""
        return canonical_fingerprint(
            {
                "cache_format": CACHE_FORMAT_VERSION,
                "model": to_jsonable(task.model),
                "system": to_jsonable(task.system),
                "n_gpus": task.n_gpus,
                "global_batch_size": task.global_batch_size,
                "strategy": task.strategy,
                "space": to_jsonable(task.space),
                "options": to_jsonable(task.options),
                "top_k": task.top_k,
                "backend": task.backend,
                "objective": getattr(task, "objective", TRAINING_OBJECTIVE),
                "serving": to_jsonable(getattr(task, "serving", None)),
                "objectives": list(getattr(task, "objectives", ()) or ()),
            }
        )

    @staticmethod
    def _result_type(task) -> type:
        """Dataclass a cached entry of ``task`` rebuilds into.

        Training tasks store :class:`~repro.core.search.SearchResult` trees;
        serving-objective tasks store
        :class:`~repro.core.inference.ServingSearchResult` trees; tasks with
        a non-empty ``objectives`` tuple store
        :class:`~repro.core.search.ParetoResult` trees.  The fingerprint
        includes the objective and the objectives tuple, so none of the
        three can ever collide.
        """
        if getattr(task, "objectives", ()):
            from repro.core.search import ParetoResult

            return ParetoResult
        if getattr(task, "objective", TRAINING_OBJECTIVE) != TRAINING_OBJECTIVE:
            from repro.core.inference import ServingSearchResult

            return ServingSearchResult
        return SearchResult

    # ------------------------------------------------------------------
    # Read/write
    # ------------------------------------------------------------------
    def get(self, task, *, fingerprint: Optional[str] = None):
        """Return the cached result for ``task``, or ``None`` on a miss.

        Training tasks yield a :class:`~repro.core.search.SearchResult`,
        serving-objective tasks a
        :class:`~repro.core.inference.ServingSearchResult` (see
        :meth:`_result_type`).  A hit returns the stored object itself: an
        entry replayed from the journal is decoded on its first hit and
        the decoded tree replaces its JSON form, so later hits share it.

        ``fingerprint`` is ``task``'s :meth:`fingerprint` when the caller
        already holds it; it is computed here otherwise.
        """
        fp = fingerprint if fingerprint is not None else self.fingerprint(task)
        with self._lock:
            entry = self._entries.get(fp)
            if isinstance(entry, dict):
                try:
                    entry = dataclass_from_jsonable(self._result_type(task), entry)
                except (TypeError, KeyError, ValueError, AttributeError):
                    # Hand-edited / schema-drifted / corrupted entry: drop it
                    # and recompute rather than aborting the whole sweep.
                    self._entries.pop(fp, None)
                    entry = None
                else:
                    self._entries[fp] = entry
            if entry is not None:
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def put(self, task, result: SearchResult, *, fingerprint: Optional[str] = None) -> None:
        """Store ``result`` itself under ``task``'s fingerprint.

        Nothing is serialized here: a cache with a path queues the record
        for the next :meth:`save`, one without never serializes at all.
        The winner (when one exists) is additionally recorded in the
        structure-keyed hint index, so later tasks of the same structure at
        *different* points can warm-start from it (:meth:`warm_hints`).
        ``fingerprint`` is as in :meth:`get`.
        """
        fp = fingerprint if fingerprint is not None else self.fingerprint(task)
        with self._lock:
            self._entries[fp] = result
            if self.path is not None:
                self._unsaved.append(("entry", fp, result))
            record = self._hint_record(task, result)
            if record is not None:
                key = reduced_fingerprint(task)
                self._record_hint(key, record)
                if self.path is not None:
                    self._unsaved.append(("hint", key, record))

    @staticmethod
    def _hint_record(task, result) -> Optional[Dict[str, Any]]:
        """Winner record of ``result`` for the hint index (None if no winner)."""
        best = getattr(result, "best", None)
        config = getattr(best, "config", None)
        if config is None:
            return None
        serving = getattr(task, "serving", None)
        return {
            "n_gpus": task.n_gpus,
            "global_batch_size": task.global_batch_size,
            "arrival_rate": getattr(serving, "arrival_rate", None),
            "config": to_jsonable(config),
        }

    def _record_hint(self, key: str, record: Dict[str, Any]) -> None:
        """Append ``record`` under ``key``, deduplicated, newest last."""
        bucket = self._hints.setdefault(key, [])
        bucket[:] = [r for r in bucket if r != record]
        bucket.append(record)
        del bucket[:-_MAX_HINTS_PER_KEY]

    def warm_hints(self, task, limit: int = MAX_WARM_HINTS) -> Tuple[ParallelConfig, ...]:
        """Nearest prior winners of ``task``'s structure, best-first.

        Looks up the reduced key (:func:`reduced_fingerprint`) and returns
        up to ``limit`` recorded winner configs ordered by distance to the
        requested point — the absolute log2 ratio of GPU count, then of
        global batch size, then of arrival rate, with the canonical
        fingerprint of the config as the final tie-break so equidistant
        records rank identically no matter in which order sweeps recorded
        them (writers in several processes interleave their journal appends
        arbitrarily).  The configs are raw
        (native to the point they won at); the solver adapts and validates
        them (:func:`repro.core.search.adapt_warm_hints`), so a hint can
        never change the search result, only speed it up.

        A Pareto task (non-empty ``objectives``) gets none: a seed time
        cannot open a frontier threshold, so the Pareto search takes no
        hints.  Its winner still feeds the index for scalar tasks.
        """
        if getattr(task, "objectives", ()):
            return ()
        with self._lock:
            bucket = list(self._hints.get(reduced_fingerprint(task), ()))
        if not bucket:
            return ()

        def _log_ratio(a, b) -> float:
            try:
                a, b = float(a), float(b)
            except (TypeError, ValueError):
                return math.inf
            if a <= 0 or b <= 0:
                return math.inf
            return abs(math.log2(a / b))

        arrival = getattr(getattr(task, "serving", None), "arrival_rate", None)

        def _distance(record: Dict[str, Any]) -> Tuple[float, float, float, str]:
            return (
                _log_ratio(record.get("n_gpus"), task.n_gpus),
                _log_ratio(record.get("global_batch_size"), task.global_batch_size),
                0.0 if arrival is None else _log_ratio(record.get("arrival_rate"), arrival),
                canonical_fingerprint(record.get("config")),
            )

        hints: List[ParallelConfig] = []
        for record in sorted(bucket, key=_distance):
            try:
                config = dataclass_from_jsonable(ParallelConfig, record["config"])
            except (TypeError, KeyError, ValueError, AttributeError):
                continue
            if config not in hints:
                hints.append(config)
            if len(hints) >= limit:
                break
        return tuple(hints)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, task) -> bool:
        fp = self.fingerprint(task)
        with self._lock:
            return fp in self._entries

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> Optional[Path]:
        """Append the records put since the last save; returns the path (if any).

        Under the cache lock *and* an exclusive ``flock`` on the file's
        directory, so neither threads nor processes interleave:

        1. Replay only the bytes other writers appended since this cache
           last read the file.  If the file was replaced (another process
           compacted it) or shrank, replay it from the start.  Fingerprints
           are content hashes, so a replayed duplicate of an entry equals
           the one already held.
        2. Append every unsaved record with one ``O_APPEND`` write.

        Instead of appending, the file is *compacted* — the header and
        every live record written to a pid-suffixed temp file, then
        ``os.replace``\\ d over the journal — when it is missing, does not
        start with the current version header, holds a torn (a writer killed
        mid-append) or malformed line, or would hold more than twice as
        many record lines as live records.  So a new record is never
        appended onto a torn fragment, an interrupted compaction never
        truncates the journal, and the temp file is unlinked even when the
        write fails.
        """
        if self.path is None:
            return None
        with self._lock, _directory_lock(self.path):
            current = self._catch_up()
            live = len(self._entries) + sum(len(b) for b in self._hints.values())
            if not current or self._lines + len(self._unsaved) > 2 * live:
                self._compact()
            elif self._unsaved:
                self._append()
            self._unsaved = []
            return self.path

    def _catch_up(self) -> bool:
        """Replay what other writers appended; ``False`` if the file needs rewriting.

        Runs under the directory lock, so an unterminated final line is a
        writer killed mid-append, not one still writing.
        """
        try:
            st = os.stat(self.path)
            if (
                self._fd is None
                or not os.path.samestat(os.fstat(self._fd), st)
                or st.st_size < self._offset
            ):
                self._open()
        except FileNotFoundError:
            return False
        torn = self._replay()
        return not (torn or self._stale or self._offset == 0)

    def _append(self) -> None:
        """Write every unsaved record at the journal's end with one ``O_APPEND`` write."""
        payload = b"".join(_encode(*record) for record in self._unsaved)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            _write_all(fd, payload)
        finally:
            os.close(fd)
        self._offset += len(payload)
        self._lines += len(self._unsaved)

    def _compact(self) -> None:
        """Replace the file with the header plus every live record."""
        lines = [_HEADER]
        lines.extend(_encode("entry", fp, entry) for fp, entry in self._entries.items())
        for key, bucket in self._hints.items():
            lines.extend(_encode("hint", key, record) for record in bucket)
        payload = b"".join(lines)
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            _write_all(fd, payload)
            os.replace(tmp, self.path)
        except BaseException:
            os.close(fd)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        # The temp file's descriptor now reads the journal itself.
        self._close()
        self._fd = fd
        self._offset = len(payload)
        self._lines = len(lines) - 1
        self._stale = False

    def _open(self) -> None:
        """Hold a fresh read descriptor on the journal; nothing replayed yet."""
        self._close()
        self._fd = os.open(self.path, os.O_RDONLY)
        self._offset = 0
        self._lines = 0
        self._stale = False

    def _replay(self) -> bool:
        """Apply the journal's complete lines past ``_offset``; ``True`` on a torn tail.

        Each line is parsed once.  A foreign first line (another format
        version, garbage) makes the whole file ignored, and a malformed
        record line (not JSON, or not an entry or hint record with a dict
        payload) is skipped; both mark the file for compaction.
        """
        data = _read_from(self._fd, self._offset)
        end = data.rfind(b"\n") + 1
        lines = data[:end].split(b"\n")[:-1]
        if self._offset == 0 and lines:
            if _decode(lines.pop(0)) != {"version": CACHE_FORMAT_VERSION}:
                self._stale = True
                return False
        for line in lines:
            record = _decode(line)
            if not isinstance(record, dict):
                self._stale = True
            elif isinstance(record.get("entry"), str) and isinstance(record.get("result"), dict):
                self._entries.setdefault(record["entry"], record["result"])
            elif isinstance(record.get("hint"), str) and isinstance(record.get("record"), dict):
                self._record_hint(record["hint"], record["record"])
            else:
                self._stale = True
        self._lines += len(lines)
        self._offset += end
        return end < len(data)

    def _load(self) -> None:
        """Replay the whole file (an unreadable one loads as empty)."""
        with self._lock:
            try:
                self._open()
                self._replay()
            except OSError:
                self._close()

    def _close(self) -> None:
        """Close the journal descriptor, if one is held."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def close(self) -> None:
        """Release the journal's read descriptor.

        The cache stays usable: lookups never touch the file, and the next
        :meth:`save` reopens it and replays whatever it holds.
        """
        with self._lock:
            self._close()

    def __del__(self) -> None:
        """Release the descriptor of a cache dropped without :meth:`close`."""
        if getattr(self, "_fd", None) is not None:
            self._close()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (for reports and the CLI summary line)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "hint_keys": len(self._hints),
                "hint_entries": sum(len(b) for b in self._hints.values()),
            }


def _write_all(fd: int, payload: bytes) -> None:
    """Write all of ``payload`` to ``fd``, resuming after short writes."""
    view = memoryview(payload)
    while view:
        view = view[os.write(fd, view):]


def _read_from(fd: int, offset: int) -> bytes:
    """Every byte of ``fd`` from ``offset`` to its current end."""
    os.lseek(fd, offset, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


@contextmanager
def _directory_lock(path: Path):
    """Hold an exclusive ``flock`` on ``path``'s directory (POSIX only).

    Locking the directory rather than a sidecar file leaves nothing behind
    next to the cache; the lock is released when the descriptor closes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)
