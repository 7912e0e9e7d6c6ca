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
the cache instead of returning a stale result.  Entries are stored in their
JSON form and rebuilt into :class:`~repro.core.search.SearchResult` trees on
read, so a cache can be persisted to disk and shared across processes and
sessions via :mod:`repro.utils.serialization`.
"""

from __future__ import annotations

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
    dump_json,
    load_json,
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
CACHE_FORMAT_VERSION = 8

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

    ``eval_mode`` and ``top_k`` are also dropped: neither changes which
    configuration wins, so a scalar solve may warm-start a batch one and
    vice versa.
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


class SearchCache:
    """In-memory, optionally JSON-persisted store of solved search points.

    Parameters
    ----------
    path:
        Optional JSON file backing the cache.  When given and the file
        exists, its entries are loaded eagerly; :meth:`save` writes the
        current entries back.  A file written by an incompatible
        :data:`CACHE_FORMAT_VERSION` is silently treated as empty.

    A single instance is safe to share between threads (the long-running
    API server keeps one process-wide cache hot across concurrent
    requests): every lookup, store, counter update and the whole
    read-merge-replace of :meth:`save` run under one process-local lock.
    Across processes, :meth:`save` merges under an exclusive file lock, as
    documented there.
    """

    def __init__(self, path: str | Path | None = None):
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._entries: Dict[str, Any] = {}
        # Structure-keyed hint index: reduced fingerprint -> list of winner
        # records ({n_gpus, global_batch_size, arrival_rate, config}).  Fed
        # by put(), consumed by warm_hints(), persisted alongside the exact
        # entries so a restarted API process warm-starts from its history.
        self._hints: Dict[str, List[Dict[str, Any]]] = {}
        self.hits = 0
        self.misses = 0
        # Reentrant so save()'s merge can call helpers that also lock, and
        # so a subclass hook running under the lock can still use get/put.
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
                "eval_mode": getattr(task, "eval_mode", "scalar"),
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
    def get(self, task):
        """Return the cached result for ``task``, or ``None`` on a miss.

        Training tasks yield a :class:`~repro.core.search.SearchResult`,
        serving-objective tasks a
        :class:`~repro.core.inference.ServingSearchResult` (see
        :meth:`_result_type`).
        """
        fp = self.fingerprint(task)
        with self._lock:
            entry = self._entries.get(fp)
            if entry is not None:
                try:
                    result = dataclass_from_jsonable(self._result_type(task), entry)
                except (TypeError, KeyError, ValueError, AttributeError):
                    # Hand-edited / schema-drifted / corrupted entry: drop it
                    # and recompute rather than aborting the whole sweep.
                    self._entries.pop(fp, None)
                else:
                    self.hits += 1
                    return result
            self.misses += 1
            return None

    def put(self, task, result: SearchResult) -> None:
        """Store ``result`` under ``task``'s fingerprint.

        The winner (when one exists) is additionally recorded in the
        structure-keyed hint index, so later tasks of the same structure at
        *different* points can warm-start from it (:meth:`warm_hints`).
        """
        entry = to_jsonable(result)
        with self._lock:
            self._entries[self.fingerprint(task)] = entry
            record = self._hint_record(task, result)
            if record is not None:
                self._record_hint(reduced_fingerprint(task), record)

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
        them (merge-on-save can interleave buckets arbitrarily across
        processes).  The configs are raw
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
    def save(self, path: str | Path | None = None) -> Optional[Path]:
        """Persist all entries as JSON; returns the path written (if any).

        The write is atomic (temp file + ``os.replace``), so an interrupted
        save never truncates an existing cache, and the pid-suffixed temp
        file is unlinked even when serialization fails mid-write (disk
        full, unserializable entry), so aborted saves leave no litter.
        Entries another process wrote to the same file are merged in: the
        file is re-read at save time and our entries overlaid (fingerprints
        are content hashes, so colliding entries are equal).  The whole
        read-merge-replace runs under the cache lock *and* an exclusive
        ``flock`` on the file's directory, so neither concurrent threads nor
        concurrent processes can drop each other's entries.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        with self._lock, _directory_lock(target):
            stored, merged_hints = self._read(target)
            merged = {**stored, **self._entries}
            for key, bucket in self._hints.items():
                for record in bucket:
                    existing = merged_hints.setdefault(key, [])
                    existing[:] = [r for r in existing if r != record]
                    existing.append(record)
                del merged_hints[key][:-_MAX_HINTS_PER_KEY]
            tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
            try:
                dump_json(
                    {
                        "version": CACHE_FORMAT_VERSION,
                        "entries": merged,
                        "hints": merged_hints,
                    },
                    tmp,
                )
                os.replace(tmp, target)
            finally:
                # No-op on success (os.replace consumed the temp file);
                # best-effort cleanup when the dump or the replace raised.
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
            self._entries = merged
            self._hints = merged_hints
            return target

    @staticmethod
    def _read(path: Path) -> Tuple[Dict[str, Any], Dict[str, List[Dict[str, Any]]]]:
        """``(entries, hints)`` stored in ``path``; empty on missing/corrupt/old files.

        The file is parsed once.  ``json.loads`` failures (truncated writes,
        binary garbage, undecodable bytes — all of which surface as
        ``ValueError`` subclasses — and OS errors such as the path being a
        directory) degrade to an empty cache, and individually malformed
        entry values and hint records are filtered out so a partly corrupted
        file never poisons a later :meth:`save`.
        """
        try:
            data = load_json(path)
        except (OSError, ValueError):
            return {}, {}
        if not isinstance(data, dict) or data.get("version") != CACHE_FORMAT_VERSION:
            return {}, {}
        entries = data.get("entries")
        hints = data.get("hints")
        if not isinstance(entries, dict):
            entries = {}
        if not isinstance(hints, dict):
            hints = {}
        return (
            {k: v for k, v in entries.items() if isinstance(v, dict)},
            {
                key: [r for r in bucket if isinstance(r, dict)]
                for key, bucket in hints.items()
                if isinstance(bucket, list)
            },
        )

    def _load(self) -> None:
        with self._lock:
            entries, hints = self._read(self.path)
            self._entries.update(entries)
            for key, bucket in hints.items():
                for record in bucket:
                    self._record_hint(key, record)

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
