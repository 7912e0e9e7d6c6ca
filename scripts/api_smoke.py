#!/usr/bin/env python3
"""Smoke-test the planning service end to end (the CI ``api-smoke`` job).

Boots a real server on an ephemeral port and drives it over HTTP,
asserting the service's two headline guarantees:

1. **Warm shared cache** — a cold search is ``source: "solved"``; the
   identical repeat is ``source: "cache"`` with the same summary and no
   second engine solve.
2. **Request-level dedup** — two concurrent identical requests cost
   exactly one engine solve: sources come back ``{"solved", "dedup"}``
   and ``/v1/status`` reports ``dedup_hits == 1``.  The concurrent phase
   uses a gate-wrapped solver so the overlap is deterministic, not a
   sleep race.
3. **Persistent cache across a restart** — a server with a cache file
   solves one search and is shut down and closed; a second server booted
   on the same file answers the same request with ``source: "cache"``,
   the same summary and no engine solve, and the file starts with the
   journal's ``{"version": CACHE_FORMAT_VERSION}`` header line.

Exits non-zero on the first violated assertion.  Run locally with:

    PYTHONPATH=src python scripts/api_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.runtime.cache import CACHE_FORMAT_VERSION
from repro.runtime.executor import solve_search_task
from repro.serve_api import PlannerApp, create_server

SEARCH = {"workload": "gpt3-1t", "gpus": 128, "global_batch": 512}


def post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.loads(response.read())


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"api-smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"api-smoke: ok: {message}")


def serve(app: PlannerApp) -> tuple:
    server = create_server(port=0, app=app, quiet=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, "http://{}:{}".format(*server.server_address[:2])


def main() -> int:
    # ------------------------------------------------------------------
    # Phase 1: cold/warm pair against the real engine.
    # ------------------------------------------------------------------
    app = PlannerApp()
    server, base = serve(app)
    try:
        check(get(base, "/v1/health") == {"ok": True}, "health endpoint answers")

        start = time.monotonic()
        cold = post(base, "/v1/search", SEARCH)
        cold_s = time.monotonic() - start
        check(cold["found"], "cold search finds a configuration")
        check(cold["source"] == "solved", "cold search is a fresh engine solve")

        warm = post(base, "/v1/search", SEARCH)
        check(warm["source"] == "cache", "identical repeat hits the warm cache")
        check(warm["summary"] == cold["summary"], "cached result is identical")
        status = get(base, "/v1/status")
        check(status["engine_solves"] == 1,
              f"one engine solve for two requests (cold took {cold_s:.2f}s)")

        streamed = urllib.request.urlopen(
            urllib.request.Request(
                base + "/v1/search",
                data=json.dumps({**SEARCH, "gpus": 256, "stream": True}).encode(),
            ),
            timeout=120,
        ).read()
        kinds = [json.loads(line)["event"] for line in streamed.splitlines()]
        check(kinds[0] == "accepted" and kinds[-1] == "result" and "progress" in kinds,
              f"stream is accepted -> progress -> result (got {kinds})")
    finally:
        server.shutdown()
        server.server_close()
        app.close()

    # ------------------------------------------------------------------
    # Phase 2: deterministic concurrent dedup (gate-wrapped real solver).
    # ------------------------------------------------------------------
    release = threading.Event()

    def gated_solver(task):
        release.wait(timeout=60)
        return solve_search_task(task)

    app = PlannerApp(solver=gated_solver)
    server, base = serve(app)
    try:
        outcomes = [None, None]

        def request(i):
            outcomes[i] = post(base, "/v1/search", SEARCH)

        threads = [threading.Thread(target=request, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while get(base, "/v1/status")["dedup_hits"] != 1:
            check(time.monotonic() < deadline, "second request attaches in flight")
            time.sleep(0.02)
        release.set()  # both requests overlap for certain; let the one solve run
        for t in threads:
            t.join(timeout=120)
        sources = sorted(o["source"] for o in outcomes)
        check(sources == ["dedup", "solved"],
              f"concurrent identical requests dedup (sources={sources})")
        status = get(base, "/v1/status")
        check(status["engine_solves"] == 1, "exactly one engine solve for the pair")
        check(status["dedup_hits"] == 1, "dedup_hits counter pinned at 1")
        check(status["in_flight"] == 0, "in-flight table drained")
    finally:
        server.shutdown()
        server.server_close()
        app.close()

    # ------------------------------------------------------------------
    # Phase 3: a restarted server answers from the cache file.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plans.json"
        app = PlannerApp(cache_path=path)
        server, base = serve(app)
        try:
            first = post(base, "/v1/search", SEARCH)
            check(first["source"] == "solved", "first boot solves the search")
        finally:
            server.shutdown()
            server.server_close()
            app.close()
        header = path.read_bytes().split(b"\n", 1)[0]
        check(json.loads(header) == {"version": CACHE_FORMAT_VERSION},
              f"cache file starts with the journal header (got {header!r})")

        app = PlannerApp(cache_path=path)
        server, base = serve(app)
        try:
            again = post(base, "/v1/search", SEARCH)
            check(again["source"] == "cache", "restarted server answers from the cache file")
            check(again["summary"] == first["summary"], "reloaded result is identical")
            check(get(base, "/v1/status")["engine_solves"] == 0,
                  "no engine solve after the restart")
        finally:
            server.shutdown()
            server.server_close()
            app.close()

    print("api-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
