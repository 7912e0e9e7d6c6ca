"""One closed-loop pass of each workload through the planner's public surface.

* ``design-sweep`` calls the :mod:`repro.analysis` sweep functions with a
  ``progress`` callback; one op is one sweep point, timed between callbacks.
* ``pareto-frontier`` sends ``/v1/pareto`` payloads to
  :meth:`repro.serve_api.PlannerApp.pareto` in-process.
* ``api-replay`` sends HTTP requests over one keep-alive loopback
  connection to :func:`repro.serve_api.handlers.create_server`.

Every pass starts from fresh process state (see :func:`reset_process`), so
repeated passes replay the same work and a per-op best over passes is a
fair statistic.  Each op records its wall and process CPU time, and the
host's pace is probed before the first op and after every op
(:mod:`.pace`), outside the timed intervals.  Each op yields a JSON-ready
*answer*; :mod:`.answers` checks them.
"""

from __future__ import annotations

import gc
import http.client
import json
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.speedups import speedup_sweep
from repro.analysis.sweeps import (
    VIT_SCALING_GPUS,
    hardware_heatmap,
    scaling_sweep,
    system_grid_sweep,
)
from repro.core.execution import clear_caches
from repro.core.system import make_system
from repro.core.workloads import get_workload
from repro.runtime import executor
from repro.serve_api import PlannerApp, create_server

from planbench import pace
from planbench.ops import Request
from planbench.tracer import Tracer, replace_everywhere

#: Scratch space inside the checkout (cache files, traces).
WORK_DIR = Path(__file__).resolve().parent.parent / ".planbench"


@dataclass
class PassResult:
    """What one pass measured and answered, op by op."""

    #: Wall and process CPU seconds of each op, as measured.
    latencies: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    #: Probe times (:func:`pace.probe`): before op 0, then after each op.
    probes: List[float] = field(default_factory=list)
    answers: List[Any] = field(default_factory=list)
    #: Per-op inputs the answer checks need (design-sweep: the solved task).
    context: List[Any] = field(default_factory=list)
    errors: Dict[int, str] = field(default_factory=dict)
    probe: Callable[[], float] = pace.probe

    def record(self, wall: float, cpu: float) -> None:
        """Store one op's times, then probe the pace for the next op."""
        self.latencies.append(wall)
        self.cpu.append(cpu)
        self.probes.append(self.probe())


def reset_process() -> None:
    """Drop the planner's memoised state and garbage from earlier passes."""
    clear_caches()
    gc.collect()


def _winner(result) -> Optional[List[Any]]:
    best = result.best
    if best is None:
        return None
    return [best.config.describe(), list(best.assignment.as_tuple()), best.total_time]


class DesignSweep:
    """The paper's sweeps, serial executor, warm chaining, default eval mode."""

    def open(self) -> None:
        self.models = {name: get_workload(name).model for name in ("gpt3-1t", "vit")}

    def close(self) -> None:
        pass

    def _call(self, spec: Dict[str, Any], progress: Callable[[int, int], None]) -> None:
        model = self.models[spec["model"]]
        kind = spec["sweep"]
        if kind == "scaling":
            extra = {"n_gpus_list": VIT_SCALING_GPUS} if spec["model"] == "vit" else {}
            scaling_sweep(model, make_system(spec["gpu"], spec["nvs"]),
                          strategy=spec["strategy"], progress=progress, **extra)
        elif kind == "grid":
            system_grid_sweep(model, gpu_generations=tuple(spec["generations"]),
                              progress=progress)
        elif kind == "heatmap":
            hardware_heatmap(model, mode=spec["mode"], progress=progress)
        else:
            speedup_sweep(model, gpu_generations=(spec["gpu"],),
                          nvs_domain_sizes=(spec["nvs"],), n_gpus_list=(128, 256),
                          progress=progress)

    def run(self, sweeps: List[Dict[str, Any]], tracer: Optional[Tracer]) -> PassResult:
        out = PassResult()
        if tracer is not None:
            # Probes run inside SweepExecutor.run; a span of their own keeps
            # them out of the executor's self time.
            out.probe = lambda: tracer.span("planbench.pace_probe", pace.probe)
        solved: List[Any] = []
        original = executor.solve_search_task

        def tap(task):
            result = original(task)
            solved.append((task, result))
            return result

        restore = replace_everywhere(original, tap)
        if tracer is not None:
            tracer.request = 0
        try:
            out.probes.append(out.probe())
            for spec in sweeps:
                last, last_cpu = time.perf_counter(), time.process_time()

                def progress(done: int, total: int) -> None:
                    nonlocal last, last_cpu
                    out.record(time.perf_counter() - last, time.process_time() - last_cpu)
                    last, last_cpu = time.perf_counter(), time.process_time()
                    if tracer is not None:
                        tracer.request = len(out.latencies)

                before = len(out.latencies)
                try:
                    self._call(spec, progress)
                except Exception as exc:  # noqa: BLE001 - a failed sweep is reported, not fatal
                    out.errors[before] = f"{spec}: {exc!r}"
        finally:
            restore()
        out.context = [task for task, _ in solved]
        out.answers = [
            {"point": f"{task.system.name}|{task.n_gpus}|{task.strategy}", "winner": _winner(result)}
            for task, result in solved
        ]
        return out


def _pareto_answer(body: Dict[str, Any]) -> Dict[str, Any]:
    summary = body["summary"]
    return {
        "frontier": [
            [p["config"], p["assignment"], [p["metrics"][o] for o in body["objectives"]]]
            for p in body["frontier"]
        ],
        "best": [summary.get("config"), summary.get("assignment"), summary.get("total_time_s")],
    }


class ParetoFrontier:
    """``/v1/pareto`` payloads into a fresh in-process :class:`PlannerApp`."""

    def open(self) -> None:
        self.app = PlannerApp()

    def close(self) -> None:
        self.app.close()

    def run(self, payloads: List[Dict[str, Any]], tracer: Optional[Tracer]) -> PassResult:
        out = PassResult(probes=[pace.probe()])
        for i, payload in enumerate(payloads):
            if tracer is not None:
                tracer.request = i
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                body = self.app.pareto(payload)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                body = None
                out.errors[i] = repr(exc)
            out.record(time.perf_counter() - t0, time.process_time() - c0)
            out.answers.append(None if body is None else _pareto_answer(body))
        return out


def _api_answer(request: Request, status: int, body: Any) -> Any:
    """The part of a response that must not change between commits."""
    if status != 200 or request.kind in ("malformed", "status"):
        return {"status": status}
    if request.path == "/v1/pareto":
        return {"status": status, "source": body["source"], **_pareto_answer(body)}
    summary = body["summary"]
    if request.kind == "evaluate":
        return {"status": status, "feasible": body["feasible"], "time": summary["total_time_s"]}
    answer = {"status": status, "source": body["source"], "found": body["found"]}
    if body["found"]:
        answer["winner"] = [summary["config"], summary["assignment"]]
        keys = ("ttft_s", "tpot_s", "tokens_per_s_per_gpu") if request.path == "/v1/serve" \
            else ("total_time_s",)
        answer["values"] = [summary[k] for k in keys]
    return answer


class ApiReplay:
    """HTTP requests over one keep-alive connection to a live server."""

    def open(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="api-", dir=WORK_DIR))
        self.server = create_server("127.0.0.1", 0, cache_path=self.tmp / "cache.json",
                                    jobs=1, quiet=True)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05})
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.conn.connect()

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.server.app.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, requests: List[Request], tracer: Optional[Tracer]) -> PassResult:
        out = PassResult(probes=[pace.probe()])
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            headers = {"Content-Type": "application/json"} if request.body is not None else {}
            body = None if request.body is None else request.body.encode("utf-8")
            t0, c0 = time.perf_counter(), time.process_time()
            self.conn.request(request.method, request.path, body=body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            out.record(time.perf_counter() - t0, time.process_time() - c0)
            try:
                answer = _api_answer(request, response.status, json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                answer = {"status": response.status}
                out.errors[i] = f"unreadable response: {exc!r}"
            if response.status != request.expect:
                out.errors[i] = f"status {response.status}, expected {request.expect}"
            out.answers.append(answer)
        return out


RUNNERS = {
    "design-sweep": DesignSweep,
    "pareto-frontier": ParetoFrontier,
    "api-replay": ApiReplay,
}
