"""Regression tests: SearchCache recovery from corrupted/truncated files.

A cache file is a convenience, never a correctness dependency: any
unreadable, truncated, binary-garbage, wrong-version or partially mangled
file must degrade to an empty (or partially usable) cache — silently on
read, and without poisoning later saves.
"""

from __future__ import annotations

import json

import pytest

from repro.core.model import TransformerConfig
from repro.core.system import make_system
from repro.runtime import SearchCache, SearchTask, SweepExecutor
from repro.runtime.cache import CACHE_FORMAT_VERSION

TINY = TransformerConfig(name="tiny", seq_len=256, embed_dim=512, num_heads=8, depth=4)
SYSTEM = make_system("B200", 8)


def _task(n_gpus=8):
    return SearchTask(model=TINY, system=SYSTEM, n_gpus=n_gpus, global_batch_size=16)


def _solved_cache(path):
    """A cache file with one genuinely solved entry at ``path``."""
    cache = SearchCache(path)
    SweepExecutor(cache=cache).run([_task()])
    return cache


@pytest.mark.parametrize(
    "content",
    [
        b"",  # empty file
        b'{"version": %d, "entries": {"ab' % CACHE_FORMAT_VERSION,  # truncated write
        b"\x80\x81\xff\x00 not json at all",  # binary garbage
        b"[1, 2, 3]",  # valid JSON, wrong shape
        b'{"version": 999, "entries": {}}',  # future format version
        b'{"version": %d, "entries": ["list"]}' % CACHE_FORMAT_VERSION,  # wrong entries type
        b'null',
    ],
    ids=["empty", "truncated", "binary", "wrong-shape", "wrong-version", "bad-entries", "null"],
)
def test_corrupted_cache_file_loads_as_empty(tmp_path, content):
    path = tmp_path / "cache.json"
    path.write_bytes(content)
    cache = SearchCache(path)
    assert len(cache) == 0
    assert cache.get(_task()) is None  # counted as a miss, no exception


def test_corrupted_cache_file_is_recovered_by_save(tmp_path):
    """A sweep over a corrupted cache recomputes, then rewrites a valid file."""
    path = tmp_path / "cache.json"
    path.write_bytes(b'{"version": %d, "entries": {"trunc' % CACHE_FORMAT_VERSION)
    cache = _solved_cache(path)
    assert cache.misses == 1 and len(cache) == 1
    # The rewritten file round-trips: a fresh cache hits.
    fresh = SearchCache(path)
    assert fresh.get(_task()) is not None
    assert fresh.hits == 1


def _records(path):
    """The journal's parsed header and its parsed record lines."""
    header, *lines = path.read_bytes().splitlines()
    return json.loads(header), [json.loads(line) for line in lines]


def test_malformed_entry_values_are_filtered_on_load(tmp_path):
    """Records whose result is not a dict are dropped, then compacted away."""
    path = tmp_path / "cache.json"
    _solved_cache(path)
    (good_fp,) = [r["entry"] for r in _records(path)[1] if "entry" in r]
    with path.open("ab") as fh:
        fh.write(b'{"entry":"deadbeef","result":"not a result"}\n')
        fh.write(b'{"entry":"cafebabe","result":42}\n')
    cache = SearchCache(path)
    assert len(cache) == 1  # only the well-formed entry survives
    cache.save()  # malformed lines make the save rewrite the file
    _, records = _records(path)
    assert {r["entry"] for r in records if "entry" in r} == {good_fp}


def test_schema_drifted_entry_is_dropped_and_recomputed(tmp_path):
    """An entry that fails reconstruction is evicted, not fatal."""
    path = tmp_path / "cache.json"
    cache = _solved_cache(path)
    fp = cache.fingerprint(_task())
    cache._entries[fp] = {"best": {"config": "garbage"}, "statistics": []}
    assert cache.get(_task()) is None  # dropped, counted as a miss
    assert fp not in cache._entries


def test_save_over_corrupted_file_succeeds(tmp_path):
    path = tmp_path / "cache.json"
    path.write_bytes(b"\x00\x01corrupt")
    cache = SearchCache(path)
    SweepExecutor(cache=cache).run([_task()])
    header, records = _records(path)
    assert header == {"version": CACHE_FORMAT_VERSION}
    assert len([r for r in records if "entry" in r]) == 1


def test_old_format_version_is_discarded(tmp_path):
    """A v1 cache (pre-scenario-axes schema) is ignored, not misread."""
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": 1, "entries": {"fp": {"stale": True}}}))
    cache = SearchCache(path)
    assert len(cache) == 0
