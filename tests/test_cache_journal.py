"""The search cache's on-disk journal: appends, shared hits, torn tails, compaction.

The file is a ``{"version": 11}`` header followed by one JSON record per
line; a save appends only what was put since the previous one, and the
file is rewritten (compacted) only when it is missing, foreign, torn or
mostly duplicates.
"""

from __future__ import annotations

import json

import pytest

from repro.core.model import TransformerConfig
from repro.core.search import SearchResult
from repro.core.system import make_system
from repro.runtime import SearchCache, SearchTask, solve_search_task
from repro.runtime.cache import CACHE_FORMAT_VERSION
from repro.utils.serialization import to_jsonable

TINY = TransformerConfig(name="tiny", seq_len=256, embed_dim=512, num_heads=8, depth=4)
SYSTEM = make_system("B200", 8)


def _task(n_gpus=8):
    return SearchTask(model=TINY, system=SYSTEM, n_gpus=n_gpus, global_batch_size=16)


def _lines(path):
    """Every line of the journal at ``path``, parsed (header first)."""
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def _stub_result(task):
    return SearchResult(
        model_name=task.model.name,
        system_name=task.system.name,
        n_gpus=task.n_gpus,
        global_batch_size=task.global_batch_size,
        strategy=str(task.strategy),
        best=None,
    )


def test_save_appends_only_the_new_entry(tmp_path):
    path = tmp_path / "cache.json"
    cache = SearchCache(path)
    first, second = _task(8), _task(16)
    cache.put(first, solve_search_task(first))
    cache.save()
    before = path.read_bytes()

    cache.put(second, solve_search_task(second))
    cache.save()
    after = path.read_bytes()
    assert after.startswith(before)  # earlier bytes untouched
    appended = [json.loads(line) for line in after[len(before):].splitlines()]
    fp = SearchCache.fingerprint(second)
    assert [r.get("entry") for r in appended if "entry" in r] == [fp]
    # The rest is the new winner's hint record, nothing re-written.
    hints = [r for r in appended if "hint" in r]
    assert len(appended) == 2 and len(hints) == 1
    assert hints[0]["record"]["n_gpus"] == 16


def test_hit_returns_the_stored_result(tmp_path):
    task = _task()
    result = solve_search_task(task)
    cache = SearchCache()
    cache.put(task, result)
    assert cache.get(task) is result

    path = tmp_path / "cache.json"
    persisted = SearchCache(path)
    persisted.put(task, result)
    persisted.save()
    reloaded = SearchCache(path)
    hit = reloaded.get(task)
    assert hit == result
    assert reloaded.get(task) is hit  # decoded once, then shared


def test_torn_final_line_loses_no_complete_record(tmp_path):
    """A writer killed mid-append leaves a fragment; nothing else is lost."""
    path = tmp_path / "cache.json"
    cache = SearchCache(path)
    tasks = [_task(n) for n in (8, 16)]
    for task in tasks:
        cache.put(task, solve_search_task(task))
    cache.save()
    with path.open("ab") as fh:
        fh.write(b'{"entry":"0123abcd","result":{"best":nu')  # no newline

    fresh = SearchCache(path)
    assert len(fresh) == 2
    assert all(fresh.get(task) == cache.get(task) for task in tasks)
    late = _task(32)
    fresh.put(late, solve_search_task(late))
    fresh.save()
    lines = _lines(path)  # every line parses: the fragment is gone
    assert lines[0] == {"version": CACHE_FORMAT_VERSION}
    assert "0123abcd" not in [r.get("entry") for r in lines]
    assert len(SearchCache(path)) == 3


def test_compaction_preserves_every_result_and_hint(tmp_path):
    path = tmp_path / "cache.json"
    tasks = [_task(n) for n in (8, 16, 32)]
    results = [solve_search_task(task) for task in tasks]
    writer = SearchCache(path)
    for task, result in zip(tasks, results):
        writer.put(task, result)
    writer.save()
    other = SearchCache(path)  # holds the pre-compaction journal
    queries = [_task(n) for n in (8, 12, 24, 64)]
    hints = [writer.warm_hints(q) for q in queries]
    assert all(hints)

    live = 2 * len(tasks)  # one entry and one hint record per task
    for expected_lines in (2 * live, live):  # the second round compacts
        for task, result in zip(tasks, results):
            writer.put(task, result)
        writer.save()
        assert len(_lines(path)) == 1 + expected_lines

    reloaded = SearchCache(path)
    assert [reloaded.get(task) for task in tasks] == results
    assert [reloaded.warm_hints(q) for q in queries] == hints
    assert reloaded.stats()["hint_entries"] == len(tasks)

    # A writer that read the journal before it was replaced replays the
    # new file from the start, then appends.
    late = _task(128)
    other.put(late, _stub_result(late))
    other.save()
    merged = SearchCache(path)
    assert len(merged) == len(tasks) + 1
    assert [merged.get(task) for task in tasks] == results


def test_v8_file_loads_empty_and_is_replaced(tmp_path):
    path = tmp_path / "cache.json"
    task = _task()
    v8 = {
        "version": 8,
        "entries": {SearchCache.fingerprint(task): {"stale": True}},
        "hints": {},
    }
    path.write_text(json.dumps(v8, indent=2))
    cache = SearchCache(path)
    assert len(cache) == 0
    cache.put(task, _stub_result(task))
    cache.save()
    lines = _lines(path)
    assert lines[0] == {"version": CACHE_FORMAT_VERSION}
    assert [r["entry"] for r in lines[1:]] == [SearchCache.fingerprint(task)]
    assert SearchCache(path).get(task) == _stub_result(task)


@pytest.mark.parametrize("version", [9, 10], ids=["v9", "v10"])
def test_old_journal_loads_empty_and_is_replaced(tmp_path, version):
    """A v9 journal keyed its entries by a fingerprint that named a pricer,
    and a v10 one by options that still carried the ``zero_optimizer`` flag."""
    path = tmp_path / "cache.json"
    task = _task()
    stale = {"entry": SearchCache.fingerprint(task), "result": {"stale": True}}
    path.write_text(json.dumps({"version": version}) + "\n" + json.dumps(stale) + "\n")
    cache = SearchCache(path)
    assert len(cache) == 0
    assert cache.get(task) is None
    cache.put(task, _stub_result(task))
    cache.save()
    lines = _lines(path)
    assert lines[0] == {"version": CACHE_FORMAT_VERSION} == {"version": 11}
    assert [r["entry"] for r in lines[1:] if "entry" in r] == [SearchCache.fingerprint(task)]
    assert all(r.get("result") != {"stale": True} for r in lines[1:])
    assert SearchCache(path).get(task) == _stub_result(task)


def test_entry_with_a_dropped_statistics_field_still_hits(tmp_path):
    """An entry written while ``SearchStatistics`` still had
    ``shared_incumbent_prunes`` replays into today's class: the unknown key
    is ignored and the stored result comes back."""
    task = _task()
    result = solve_search_task(task)
    stored = to_jsonable(result)
    stored["statistics"]["shared_incumbent_prunes"] = 3
    entry = {"entry": SearchCache.fingerprint(task), "result": stored}
    path = tmp_path / "cache.json"
    header = json.dumps({"version": CACHE_FORMAT_VERSION})
    path.write_text(header + "\n" + json.dumps(entry) + "\n")
    cache = SearchCache(path)
    assert len(cache) == 1
    hit = cache.get(task)
    assert hit == result
    assert to_jsonable(hit) == to_jsonable(result)


def test_cache_without_a_path_never_serializes(monkeypatch):
    import repro.runtime.cache as cache_mod

    task = _task()
    result = solve_search_task(task)
    serialized = []
    real = cache_mod.to_jsonable
    monkeypatch.setattr(cache_mod, "to_jsonable", lambda obj: serialized.append(obj) or real(obj))
    cache = SearchCache()
    cache.put(task, result)
    assert cache.get(task) is result
    assert cache.save() is None
    assert not any(obj is result for obj in serialized)
