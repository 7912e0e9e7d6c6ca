"""Fast checks of the benchmark's own logic (not of the planner)."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from planbench import ops as op_lists
from planbench import pace
from planbench.stats import percentile
from planbench.tracer import Span, Tracer, self_times


@pytest.mark.parametrize("workload", op_lists.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert op_lists.op_list(workload, 7) == op_lists.op_list(workload, 7)
    assert op_lists.op_list(workload, 7) != op_lists.op_list(workload, 8)


@pytest.mark.parametrize("workload", op_lists.WORKLOADS[1:])
def test_request_workloads_time_at_least_100_ops(workload):
    assert len(op_lists.op_list(workload, 3)) >= 100


def test_pareto_payloads_are_distinct():
    payloads = op_lists.op_list("pareto-frontier", 5)
    assert len({json.dumps(p, sort_keys=True) for p in payloads}) == len(payloads)


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 90) == 90.0
    assert percentile(samples[:99], 90) is None
    assert percentile(samples[:20], 50) == 10.0
    assert percentile(samples[:19], 50) is None


def test_pace_rescales_busy_time_only():
    ref = pace.REFERENCE_S
    # At half the reference pace the busy part halves; the wait is kept.
    assert pace.rescale(0.050, 0.010, 2 * ref) == pytest.approx((0.045, 0.005))
    # Busy time is capped at the wall time (CPU of other threads).
    assert pace.rescale(0.010, 0.030, ref / 2) == pytest.approx((0.020, 0.060))


def test_pace_of_an_op_is_the_median_of_the_probes_around_it():
    ref = pace.REFERENCE_S
    probes = [ref, ref, 2 * ref, 2 * ref, 2 * ref, ref]  # before op 0, after ops 0..4
    walls, cpus = pace.rescale_ops([1.0] * 5, [1.0] * 5, probes)
    assert walls == pytest.approx([1.0, 1 / 1.5, 0.5, 0.5, 0.5])
    assert cpus == walls
    with pytest.raises(ValueError):
        pace.rescale_ops([1.0] * 5, [1.0] * 5, probes[:-1])


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "app.search", 0, 100, -1, 0),
        Span(1, "search.find_optimal_config", 10, 50, 0, 0),
        Span(2, "cache.save", 40, 70, 0, 0),  # overlaps its sibling by 10
        Span(3, "execution.evaluate_config", 20, 30, 1, 0),
        Span(4, "cache.put", 90, 120, 0, 0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == {0: 100 - 60 - 10, 1: 40 - 10, 2: 30, 3: 10, 4: 30}


def test_tracer_wraps_every_importer_and_restores():
    from repro.core import execution, search
    from repro.core.model import get_model
    from repro.core.system import make_system

    original = execution.estimate_config_memory
    tracer = Tracer()
    with tracer:
        assert search.estimate_config_memory is execution.estimate_config_memory
        assert search.estimate_config_memory is not original
        search.find_optimal_config(get_model("gpt3-175b"), make_system("B200", 8), 64, 64)
    assert search.estimate_config_memory is original is execution.estimate_config_memory
    counts = tracer.counters
    assert counts["config_space.configs"] == counts["execution.estimate_config_memory.calls"] > 0
    assert counts["search.candidates"] == counts["execution.evaluate_config.calls"] > 0
    metrics = tracer.layer_metrics(passes=1)
    assert metrics["search.self_s"] > 0 and 0 < metrics["execution.memory_pass_ratio"] <= 1


def test_api_replay_expected_statuses_hold(tmp_path):
    """Every non-solving request gets its expected status; solve bodies parse."""
    from repro.serve_api import create_server, schema

    requests = op_lists.op_list("api-replay", 0)
    assert {r.kind for r in requests} == {"solve", "repeat", "evaluate", "status", "malformed"}
    parsers = {"/v1/search": schema.parse_search_request,
               "/v1/serve": schema.parse_serve_request,
               "/v1/pareto": schema.parse_pareto_request}
    server = create_server("127.0.0.1", 0, cache_path=tmp_path / "cache.json", jobs=1,
                           quiet=True)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=60)
    try:
        for request in requests:
            if request.kind in ("solve", "repeat"):
                assert request.expect == 200
                parsers[request.path](request.payload())
                continue
            body = None if request.body is None else request.body.encode()
            conn.request(request.method, request.path, body=body)
            response = conn.getresponse()
            response.read()
            assert response.status == request.expect, (request.path, request.body)
    finally:
        conn.close()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        server.app.close()
    assert not thread.is_alive()
