"""Planning-as-a-service layer (``repro.serve_api``).

Covers the pure schema boundary, the app's warm-cache / in-flight-dedup /
streaming semantics (with an injected solver so concurrency is
deterministic), and the stdlib HTTP front-end end-to-end against the real
engine.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.execution import evaluate_config
from repro.core.model import GPT3_1T
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.search import SearchResult
from repro.core.system import make_system
from repro.core.workloads import get_workload
from repro.runtime.executor import SearchTask
from repro.serve_api import ApiError, PlannerApp, create_server
from repro.serve_api import schema

B200 = make_system("B200", 8)


def _task(n_gpus=128, **overrides):
    kwargs = dict(
        model=GPT3_1T,
        system=B200,
        n_gpus=n_gpus,
        global_batch_size=512,
        strategy="tp1d",
    )
    kwargs.update(overrides)
    return SearchTask(**kwargs)


def _fake_result(task):
    """A cheap, serializable, cache-rebuildable engine result."""
    return SearchResult(
        model_name=task.model.name,
        system_name=task.system.name,
        n_gpus=task.n_gpus,
        global_batch_size=task.global_batch_size,
        strategy=str(task.strategy),
        best=None,
    )


def _wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Schema: JSON payloads <-> engine objects
# ----------------------------------------------------------------------
class TestSchema:
    def test_search_request_minimal(self):
        task = schema.parse_search_request({"gpus": 256})
        assert task.model.name == "GPT3-1T"
        assert task.system.name == "B200-NVS8"
        assert task.n_gpus == 256
        assert task.global_batch_size == 4096  # the workload's default
        assert task.strategy == "tp1d"

    def test_search_request_full(self):
        task = schema.parse_search_request(
            {
                "workload": "moe-1t",
                "gpu": "A100",
                "nvs": 4,
                "gpus": 512,
                "global_batch": 1024,
                "strategy": ["tp1d", "tp2d"],
                "top_k": 3,
                "zero_stage": 2,
                "expert_parallel": 4,
            }
        )
        assert task.model.is_moe
        assert task.system.name == "A100-NVS4"
        assert task.strategy == ("tp1d", "tp2d")
        assert task.top_k == 3
        assert task.options.zero_stage == 2
        assert task.space.expert_parallel == (4,)

    def test_search_request_matches_cli_scenario_space(self):
        """The API resolves schedule presets exactly like the CLI does."""
        task = schema.parse_search_request({"workload": "gpt3-1t-interleaved", "gpus": 256})
        assert task.space.schedules == ("interleaved",)
        assert task.space.virtual_stages == (2,)

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([1, 2], "JSON object"),
            ({}, "missing required field 'gpus'"),
            ({"gpus": "many"}, "field 'gpus' must be of type int"),
            ({"gpus": 0}, "must be >= 1"),
            ({"gpus": True}, "must be an integer, got a boolean"),
            ({"gpus": 8, "workload": "nope"}, "unknown workload"),
            ({"gpus": 8, "gpu": "Z999"}, "unknown GPU generation"),
            ({"gpus": 8, "strategy": "mesh"}, "field 'strategy'"),
            ({"gpus": 8, "strategy": []}, "field 'strategy'"),
            ({"gpus": 8, "zero_stage": 7}, "must be 0..3"),
            ({"gpus": 8, "backend": "quantum"}, "field 'backend'"),
            ({"gpus": 8, "schedule": "bogus"}, "unknown schedule"),
            ({"gpus": 8, "top_k": -3}, "field 'top_k' must be >= 0"),
        ],
    )
    def test_search_request_rejects(self, payload, fragment):
        with pytest.raises(ApiError, match=fragment) as excinfo:
            schema.parse_search_request(payload)
        assert excinfo.value.status == 400

    def test_serve_request_overrides_preset(self):
        task = schema.parse_serve_request(
            {"gpus": 16, "objective": "tpot", "arrival_rate": 4.0, "output_tokens": 64}
        )
        preset = get_workload("llama70b-serve").serving
        assert task.objective == "tpot"
        assert task.serving.arrival_rate == 4.0
        assert task.serving.output_tokens == 64
        assert task.serving.prompt_tokens == preset.prompt_tokens  # untouched

    def test_serve_request_rejects_bad_objective_and_spec(self):
        with pytest.raises(ApiError, match="field 'objective'"):
            schema.parse_serve_request({"objective": "latency"})
        with pytest.raises(ApiError, match="arrival_rate"):
            schema.parse_serve_request({"arrival_rate": -1.0})

    def test_sweep_request_expands_and_dedupes(self):
        tasks = schema.parse_sweep_request({"gpus": [128, 256, 128], "global_batch": 512})
        assert [t.n_gpus for t in tasks] == [128, 256]
        with pytest.raises(ApiError, match="'gpus' must be a non-empty list"):
            schema.parse_sweep_request({"gpus": 128})
        with pytest.raises(ApiError, match="entries must be integers"):
            schema.parse_sweep_request({"gpus": [128, "x"]})

    def test_evaluate_request_roundtrip(self):
        kwargs = schema.parse_evaluate_request(
            {
                "global_batch": 512,
                "config": {
                    "strategy": "tp1d",
                    "tensor_parallel_1": 8,
                    "tensor_parallel_2": 1,
                    "pipeline_parallel": 16,
                    "data_parallel": 1,
                    "microbatch_size": 1,
                },
                "assignment": {"nvs_tp1": 8},
            }
        )
        assert kwargs["config"] == ParallelConfig("tp1d", 8, 1, 16, 1, 1)
        assert kwargs["assignment"] == GpuAssignment(nvs_tp1=8)
        estimate = schema.run_evaluate(kwargs)
        direct = evaluate_config(
            GPT3_1T,
            B200,
            ParallelConfig("tp1d", 8, 1, 16, 1, 1),
            GpuAssignment(nvs_tp1=8),
            global_batch_size=512,
        )
        assert estimate.total_time == direct.total_time

    def test_evaluate_request_rejects(self):
        with pytest.raises(ApiError, match="field 'config'"):
            schema.parse_evaluate_request({})
        with pytest.raises(ApiError, match="invalid config"):
            schema.parse_evaluate_request({"config": {"strategy": "tp1d"}})
        bad = schema.parse_evaluate_request(
            {
                "config": {
                    "strategy": "tp1d",
                    "tensor_parallel_1": 7,
                    "tensor_parallel_2": 1,
                    "pipeline_parallel": 1,
                    "data_parallel": 1,
                    "microbatch_size": 1,
                }
            }
        )
        with pytest.raises(ApiError, match="does not divide"):
            schema.run_evaluate(bad)

    def test_pareto_request_defaults(self):
        task = schema.parse_pareto_request({"gpus": 128})
        assert task.objectives == ("time", "hbm_headroom", "cost", "energy")
        assert task.top_k == 0  # pinned: top_k does not apply to a frontier
        assert task.model.name == "GPT3-1T"

    def test_pareto_request_objective_subset(self):
        task = schema.parse_pareto_request(
            {"gpus": 128, "objectives": ["time", "cost"], "top_k": 5}
        )
        assert task.objectives == ("time", "cost")
        assert task.top_k == 0  # a requested top_k is ignored, not an error

    @pytest.mark.parametrize(
        "objectives, fragment",
        [
            ([], "non-empty list"),
            ("time", "non-empty list"),
            ([1, 2], "non-empty list"),
            (["time", "warp-drive"], "unknown objective"),
            (["time", "time"], "duplicate"),
        ],
    )
    def test_pareto_request_rejects(self, objectives, fragment):
        with pytest.raises(ApiError, match=fragment) as excinfo:
            schema.parse_pareto_request({"gpus": 128, "objectives": objectives})
        assert excinfo.value.status == 400

    def test_stream_flag(self):
        assert schema.get_stream_flag({"stream": True})
        assert not schema.get_stream_flag({})


# ----------------------------------------------------------------------
# App: warm cache, in-flight dedup, streaming
# ----------------------------------------------------------------------
class TestPlannerApp:
    def test_negative_top_k_is_a_400_before_any_solve(self):
        app = PlannerApp(solver=lambda task: _fake_result(task))
        for path in (app.search, app.serve):
            with pytest.raises(ApiError, match="'top_k'") as excinfo:
                path({"gpus": 8, "top_k": -3})
            assert excinfo.value.status == 400
        status = app.status()
        assert status["engine_solves"] == 0
        assert status["cache"]["entries"] == 0

    def test_one_fingerprint_per_search_request(self, monkeypatch):
        """A miss fingerprints its task once (not for get, put and dedup
        separately), and a hit once."""
        from repro.runtime.cache import SearchCache

        original = SearchCache.fingerprint
        calls = []

        def counting(task):
            calls.append(task)
            return original(task)

        monkeypatch.setattr(SearchCache, "fingerprint", staticmethod(counting))
        app = PlannerApp(solver=lambda task: _fake_result(task))
        body = {"workload": "gpt3-175b", "gpus": 64, "global_batch": 64}
        assert app.search(body)["source"] == "solved"
        assert len(calls) == 1
        assert app.search(body)["source"] == "cache"
        assert len(calls) == 2

    def test_eval_mode_key_is_ignored_and_shares_one_solve(self):
        """The runtime picks the pricer, so bodies that differ only in an
        ``eval_mode`` key are one search: one engine solve, then a hit."""
        app = PlannerApp()
        body = {"workload": "gpt3-175b", "gpus": 64, "global_batch": 64}
        first = app.search({**body, "eval_mode": "scalar"})
        second = app.search({**body, "eval_mode": "batch"})
        assert (first["source"], second["source"]) == ("solved", "cache")
        assert second["summary"] == first["summary"]
        assert app.status()["engine_solves"] == 1
        app.close()

    def test_default_zero_stage_shares_one_solve(self):
        """``"zero_stage": 1`` spells the default options: one engine solve,
        then a hit."""
        app = PlannerApp()
        first = app.search({"gpus": 256})
        second = app.search({"gpus": 256, "zero_stage": 1})
        assert (first["source"], second["source"]) == ("solved", "cache")
        assert second["summary"] == first["summary"]
        assert app.status()["engine_solves"] == 1
        app.close()

    def test_serve_ignores_global_batch_and_zero_stage(self):
        """The serving model reads neither field, so bodies that differ only
        in them are one serving search."""
        app = PlannerApp()
        body = {"workload": "llama70b-serve", "gpus": 8}
        extras = ({}, {"global_batch": 64}, {"zero_stage": 2}, {"zero_stage": 0})
        answers = [app.serve({**body, **extra}) for extra in extras]
        assert [a["source"] for a in answers] == ["solved", "cache", "cache", "cache"]
        assert all(a["summary"] == answers[0]["summary"] for a in answers)
        assert app.status()["engine_solves"] == 1
        app.close()

    def test_second_identical_request_hits_warm_cache(self):
        solves = []

        def solver(task):
            solves.append(task)
            return _fake_result(task)

        app = PlannerApp(solver=solver)
        _, first = app.solve_task(_task())
        _, second = app.solve_task(_task())
        assert (first, second) == ("solved", "cache")
        assert len(solves) == 1
        status = app.status()
        assert status["engine_solves"] == 1
        assert status["dedup_hits"] == 0
        assert status["cache"]["hits"] == 1

    def test_warm_hit_serves_from_memory_not_disk(self, tmp_path):
        """A repeated request is served without touching the cache file."""
        path = tmp_path / "cache.json"
        app = PlannerApp(cache_path=path, solver=lambda task: _fake_result(task))
        app.solve_task(_task())
        assert path.exists()  # the solve persisted the entry
        path.unlink()  # remove the disk copy entirely
        result, source = app.solve_task(_task())
        assert source == "cache"
        assert result.n_gpus == 128
        assert not path.exists()  # pure in-memory hit: no disk read or write

    def test_concurrent_identical_requests_one_engine_solve(self):
        """N concurrent identical searches -> 1 solve, dedup_hits == N-1."""
        n_requests = 4
        release = threading.Event()
        solves = []

        def solver(task):
            solves.append(task)
            assert release.wait(timeout=10)
            return _fake_result(task)

        app = PlannerApp(solver=solver)
        outcomes = [None] * n_requests

        def request(i):
            outcomes[i] = app.solve_task(_task())

        threads = [threading.Thread(target=request, args=(i,)) for i in range(n_requests)]
        for t in threads:
            t.start()
        # Deterministic overlap: wait until every follower has attached to
        # the owner's in-flight future, then let the one solve finish.
        assert _wait_until(lambda: app.status()["dedup_hits"] == n_requests - 1)
        assert app.status()["in_flight"] == 1
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert len(solves) == 1  # exactly one engine solve
        sources = sorted(source for _, source in outcomes)
        assert sources == ["dedup"] * (n_requests - 1) + ["solved"]
        results = {result.n_gpus for result, _ in outcomes}
        assert results == {128}
        status = app.status()
        assert status["engine_solves"] == 1
        assert status["dedup_hits"] == n_requests - 1
        assert status["in_flight"] == 0

    def test_distinct_requests_are_not_deduplicated(self):
        app = PlannerApp(solver=lambda task: _fake_result(task))
        app.solve_task(_task(128))
        app.solve_task(_task(256))
        assert app.status()["engine_solves"] == 2
        assert app.status()["dedup_hits"] == 0

    def test_batch_solves_in_batch_duplicates_once(self):
        solves = []

        def solver(task):
            solves.append(task)
            return _fake_result(task)

        app = PlannerApp(solver=solver)
        results, sources = app.solve_batch([_task(128), _task(128), _task(256)])
        assert len(solves) == 2
        assert sources == ["solved", "solved", "solved"]
        assert [r.n_gpus for r in results] == [128, 128, 256]

    def test_solver_error_propagates_to_owner_and_attacher(self):
        release = threading.Event()

        def solver(task):
            assert release.wait(timeout=10)
            raise ValueError("boom: bad scenario")

        app = PlannerApp(solver=solver)
        errors = []

        def request():
            try:
                app.solve_task(_task())
            except ApiError as exc:
                errors.append(exc.message)

        threads = [threading.Thread(target=request) for _ in range(2)]
        for t in threads:
            t.start()
        assert _wait_until(lambda: app.status()["dedup_hits"] == 1)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == ["boom: bad scenario"] * 2
        assert app.status()["in_flight"] == 0  # failed fingerprint unregistered
        assert app.status()["errors"] == 1

    def test_stream_events_progress_before_result(self):
        app = PlannerApp(solver=lambda task: _fake_result(task))
        events = list(
            app.solve_events(
                [_task()],
                body=lambda results, sources: schema.result_body(
                    results[0], source=sources[0]
                ),
            )
        )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        assert "progress" in kinds
        assert kinds.index("progress") < kinds.index("result")
        assert events[-1]["source"] == "solved"

    def test_stream_events_error_terminates_stream(self):
        def solver(task):
            raise ValueError("nope")

        app = PlannerApp(solver=solver)
        events = list(
            app.solve_events([_task()], body=lambda r, s: {})
        )
        assert events[-1]["event"] == "error"
        assert "nope" in events[-1]["error"]


# ----------------------------------------------------------------------
# HTTP layer, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def live_server():
    """A real server on an ephemeral port, backed by the real engine."""
    app = PlannerApp()
    server = create_server(port=0, app=app, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", app
    server.shutdown()
    server.server_close()
    app.close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(base, path, body):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestHttpApi:
    SEARCH = {"workload": "gpt3-1t", "gpus": 128, "global_batch": 512}

    def test_health_and_status(self, live_server):
        base, _ = live_server
        assert _get(base, "/v1/health") == (200, {"ok": True})
        status, body = _get(base, "/v1/status")
        assert status == 200
        assert body["ok"] and "cache" in body

    def test_keep_alive_round_trips_skip_the_delayed_ack(self, live_server):
        """A response is two writes (headers, body); with Nagle's algorithm
        on, the body waits for the client's delayed ACK, ~40 ms a request."""
        base, _ = live_server
        url = urllib.parse.urlsplit(base)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        round_trips = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                body = response.read()
                round_trips.append(time.perf_counter() - start)
                assert response.status == 200 and json.loads(body) == {"ok": True}
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.020

    def test_workloads_listing(self, live_server):
        base, _ = live_server
        status, body = _get(base, "/v1/workloads")
        names = {w["workload"] for w in body["workloads"]}
        assert status == 200 and {"gpt3-1t", "llama70b-serve"} <= names

    def test_unknown_path_and_bad_body(self, live_server):
        base, _ = live_server
        status, raw = _post(base, "/v1/teleport", {})
        assert status == 404
        status, raw = _post(base, "/v1/search", {"gpus": "many"})
        assert status == 400 and b"gpus" in raw
        request = urllib.request.Request(base + "/v1/search", data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_cold_then_warm_search(self, live_server):
        base, app = live_server
        baseline = app.status()["engine_solves"]
        status, raw = _post(base, "/v1/search", self.SEARCH)
        cold = json.loads(raw)
        assert status == 200 and cold["found"] and cold["source"] == "solved"
        status, raw = _post(base, "/v1/search", self.SEARCH)
        warm = json.loads(raw)
        assert status == 200 and warm["source"] == "cache"
        assert warm["summary"] == cold["summary"]  # byte-identical result
        assert app.status()["engine_solves"] == baseline + 1

    def test_streaming_search(self, live_server):
        base, _ = live_server
        status, raw = _post(base, "/v1/search", {**self.SEARCH, "stream": True})
        assert status == 200
        events = [json.loads(line) for line in raw.splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        assert kinds.index("progress") < kinds.index("result")

    PARETO = {
        "workload": "gpt3-1t",
        "gpus": 128,
        "global_batch": 512,
        "objectives": ["time", "cost", "hbm_headroom"],
        "eval_mode": "batch",
    }

    def test_pareto_cold_then_cached(self, live_server):
        base, _ = live_server
        status, raw = _post(base, "/v1/pareto", self.PARETO)
        cold = json.loads(raw)
        assert status == 200 and cold["found"] and cold["source"] == "solved"
        assert cold["objectives"] == self.PARETO["objectives"]
        assert cold["summary"]["frontier_size"] == len(cold["frontier"])
        assert all(
            set(p["metrics"]) == set(self.PARETO["objectives"])
            for p in cold["frontier"]
        )
        status, raw = _post(base, "/v1/pareto", self.PARETO)
        warm = json.loads(raw)
        assert status == 200 and warm["source"] == "cache"
        assert warm["frontier"] == cold["frontier"]  # survives serialization

    def test_pareto_streaming_frontier_events(self, live_server):
        base, _ = live_server
        status, raw = _post(base, "/v1/pareto", {**self.PARETO, "stream": True})
        assert status == 200
        events = [json.loads(line) for line in raw.splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        frontier_events = [e["point"] for e in events if e["event"] == "frontier"]
        result = events[-1]
        # The frontier is streamed one point per event, and the closing
        # result does not repeat it.
        assert "frontier" not in result
        assert len(frontier_events) == result["summary"]["frontier_size"]
        status, raw = _post(base, "/v1/pareto", self.PARETO)
        assert frontier_events == json.loads(raw)["frontier"]

    def test_pareto_rejects_unknown_objective(self, live_server):
        base, _ = live_server
        status, raw = _post(
            base, "/v1/pareto", {**self.PARETO, "objectives": ["karma"]}
        )
        assert status == 400
        body = json.loads(raw)
        assert "unknown objective" in body["error"]
        assert "'time'" in body["error"]  # the registry vocabulary is listed

    def test_evaluate_matches_engine(self, live_server):
        base, _ = live_server
        status, raw = _post(
            base,
            "/v1/evaluate",
            {
                "global_batch": 512,
                "config": {
                    "strategy": "tp1d",
                    "tensor_parallel_1": 8,
                    "tensor_parallel_2": 1,
                    "pipeline_parallel": 16,
                    "data_parallel": 1,
                    "microbatch_size": 1,
                },
                "assignment": {"nvs_tp1": 8},
            },
        )
        body = json.loads(raw)
        direct = evaluate_config(
            GPT3_1T,
            B200,
            ParallelConfig("tp1d", 8, 1, 16, 1, 1),
            GpuAssignment(nvs_tp1=8),
            global_batch_size=512,
        )
        assert status == 200
        assert body["summary"]["total_time_s"] == direct.total_time

    def test_sweep_reuses_cached_points(self, live_server):
        base, _ = live_server
        status, raw = _post(
            base, "/v1/sweep", {"workload": "gpt3-1t", "gpus": [128, 256], "global_batch": 512}
        )
        body = json.loads(raw)
        assert status == 200
        by_gpus = {p["summary"]["n_gpus"]: p["source"] for p in body["points"]}
        # 128 was solved by the earlier search tests; 256 is new.
        assert by_gpus[128] == "cache"
        assert by_gpus[256] == "solved"

    def test_serving_search_over_http(self, live_server):
        base, _ = live_server
        status, raw = _post(
            base, "/v1/serve", {"workload": "llama70b-serve", "gpus": 8, "objective": "throughput"}
        )
        body = json.loads(raw)
        assert status == 200 and body["found"]
        assert body["summary"]["objective"] == "throughput"
        assert body["summary"]["tokens_per_s_per_gpu"] > 0


class TestHttpConcurrency:
    def test_concurrent_identical_http_requests_deduplicate(self):
        """The acceptance-criteria flow, through the real HTTP stack."""
        n_requests = 3
        release = threading.Event()

        def solver(task):
            assert release.wait(timeout=30)
            return _fake_result(task)

        app = PlannerApp(solver=solver)
        server = create_server(port=0, app=app, quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = "http://{}:{}".format(*server.server_address[:2])
        try:
            payload = {"workload": "gpt3-1t", "gpus": 128, "global_batch": 512}
            outcomes = [None] * n_requests

            def request(i):
                outcomes[i] = _post(base, "/v1/search", payload)

            threads = [
                threading.Thread(target=request, args=(i,)) for i in range(n_requests)
            ]
            for t in threads:
                t.start()
            assert _wait_until(
                lambda: app.status()["dedup_hits"] == n_requests - 1, timeout=30
            )
            release.set()
            for t in threads:
                t.join(timeout=30)
            sources = sorted(json.loads(raw)["source"] for status, raw in outcomes)
            assert sources == ["dedup"] * (n_requests - 1) + ["solved"]
            assert app.status()["engine_solves"] == 1
        finally:
            server.shutdown()
            server.server_close()
            app.close()


# ----------------------------------------------------------------------
# CLI integration: the api sub-command and the --json bugfix
# ----------------------------------------------------------------------
class TestCliIntegration:
    def test_api_subcommand_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["api", "--port", "0", "--quiet"])
        assert args.port == 0 and args.quiet and hasattr(args, "func")

    def test_search_json_creates_missing_parents(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "deep" / "nested" / "out.json"
        rc = main(
            ["search", "--model", "gpt3-1t", "--gpus", "128",
             "--global-batch", "512", "--json", str(path)]
        )
        assert rc == 0
        assert json.loads(path.read_text())["n_gpus"] == 128

    def test_search_json_unwritable_is_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(
            ["search", "--model", "gpt3-1t", "--gpus", "128",
             "--global-batch", "512", "--json", str(blocker / "out.json")]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "repro-perf: error: cannot write --json" in err
        assert "Traceback" not in err

    def test_serve_json_paths(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "made" / "serve.json"
        rc = main(["serve", "--workload", "llama70b-serve", "--json", str(path)])
        assert rc == 0
        assert json.loads(path.read_text())["objective"] == "throughput"

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(
            ["serve", "--workload", "llama70b-serve", "--json", str(blocker / "x.json")]
        )
        assert rc == 1
        assert "cannot write --json" in capsys.readouterr().err
