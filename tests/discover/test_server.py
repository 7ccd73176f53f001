"""``POST /v1/discover`` and the allow-listed pricing runner."""

import asyncio
import dataclasses

from repro.discover.pricing import DISCOVER_RUNNER, DISCOVER_SEARCH_RUNNER
from repro.server import (
    CompileServer,
    CompileServerApp,
    CompileServerClient,
    CompileServerError,
    RemoteExecutor,
)
from repro.server.http import DEFAULT_ALLOWED_RUNNERS


def run_http(coro_fn, **core_kwargs):
    core_kwargs.setdefault("backend", "thread")

    async def _body():
        core = CompileServer(**core_kwargs)
        app = CompileServerApp(core)
        host, port = await app.start("127.0.0.1", 0)
        client = CompileServerClient(f"http://{host}:{port}",
                                     timeout_s=300.0)
        try:
            await coro_fn(client)
        finally:
            await app.close(drain=False)

    asyncio.run(_body())


def test_discover_runners_are_allow_listed():
    assert DISCOVER_RUNNER in DEFAULT_ALLOWED_RUNNERS
    assert DISCOVER_SEARCH_RUNNER in DEFAULT_ALLOWED_RUNNERS


def test_discover_route_end_to_end_and_warm_cache():
    async def body(client):
        job = await client.discover("array_sum", params={"n": 16},
                                    budget=4, trials=2, workers=1)
        assert job["state"] == "ok"
        report = job["result"]
        assert report["winner"] is not None
        assert report["winner"]["speedup"] > 1.0
        assert report["config"]["kernel"] == "array_sum"

        # identical search -> served from the warm cache tier
        warm = await client.discover("array_sum", params={"n": 16},
                                     budget=4, trials=2, workers=1)
        assert warm["state"] == "ok"
        assert warm["cached"] == "memory"
        assert (warm["result"]["winner"]["digest"]
                == report["winner"]["digest"])

    run_http(body, workers=2)


def test_discover_route_ignores_client_execution_settings(tmp_path):
    """A client cannot make the server write to a path it names or size
    a process pool."""
    client_dir = tmp_path / "client-chosen"

    async def body(client):
        job = await client.discover("array_sum", params={"n": 16},
                                    budget=2, trials=2, workers=8,
                                    cache_dir=str(client_dir))
        assert job["state"] == "ok"
        assert "cache_dir" not in job["result"]["config"]
        assert "workers" not in job["result"]["config"]

    run_http(body, workers=1)
    assert not client_dir.exists()


def test_discover_route_key_ignores_priority():
    """The same search at another priority is the same job: the second
    request is served from the memory tier."""
    async def body(client):
        first = await client.discover("array_sum", params={"n": 16},
                                      budget=2, trials=2,
                                      priority="interactive")
        assert first["state"] == "ok" and first["cached"] is None
        second = await client.discover("array_sum", params={"n": 16},
                                       budget=2, trials=2,
                                       priority="batch")
        assert second["state"] == "ok"
        assert second["cached"] == "memory"

    run_http(body, workers=1)


def test_discover_route_validates_payload():
    async def body(client):
        # unknown kernel name: submission is accepted, the job fails
        job = await client.discover("not_a_kernel", budget=1)
        assert job["state"] == "failed"
        assert "unknown kernel" in str(job.get("error"))
        # missing kernel entirely -> 400 from DiscoveryConfig.from_payload
        try:
            await client._request("POST", "/v1/discover", {"budget": 2})
            raise AssertionError("missing kernel must be rejected")
        except CompileServerError as err:
            assert err.status == 400
            assert "kernel" in str(err)

    run_http(body, workers=1)


def test_pricing_runner_via_tasks_route():
    async def body(client):
        from repro.discover.enumerate import enumerate_candidates
        from repro.discover.kernel import resolve_kernel
        from repro.discover.pricing import PricingRequest, price_candidates

        kernel = resolve_kernel("array_sum", n=16)
        candidate = enumerate_candidates(kernel)[0]
        request = PricingRequest(kernel="array_sum", params={"n": 16},
                                 candidate=candidate, fold=False,
                                 core="VexRiscv", trials=2, seed=0)
        job = await client.submit_task(
            runner=DISCOVER_RUNNER, payload=request.payload(),
            key=request.cache_key(kernel.fingerprint()),
            label=request.label())
        assert job["state"] == "ok"
        assert job["result"]["ok"] is True
        assert job["result"]["cycles"] > 0

        # The same pricing through RemoteExecutor: the request above is a
        # memory hit, a new variant executes and reports its run time.
        folded = dataclasses.replace(request, fold=True)
        remote = RemoteExecutor(f"http://{client.host}:{client.port}")
        records, stats = await asyncio.get_running_loop().run_in_executor(
            None, price_candidates, [request, folded],
            kernel.fingerprint(), remote)
        assert (stats["cached"], stats["executed"]) == (1, 1)
        assert records[0]["cached"]
        assert records[0]["cycles"] == job["result"]["cycles"]
        assert records[0]["speedup"] > 1.0
        assert records[1]["speedup"] > records[0]["speedup"]
        assert not records[1]["cached"]
        assert records[1]["seconds"] > 0

    run_http(body, workers=1)
