"""End-to-end HTTP tests: real sockets, real client, in-process server.

Each test boots a :class:`CompileServerApp` on an ephemeral port and talks
to it through :class:`CompileServerClient` — the same path the `serve` CLI
and the load-generator benchmark exercise."""

import asyncio

import pytest

from repro.isaxes import ALL_ISAXES
from repro.service.cache import ShardedArtifactCache
from repro.service.jobs import digest
from repro.server import (
    CompileServer,
    CompileServerApp,
    CompileServerClient,
    CompileServerError,
)

ECHO = "tests.service.runners:echo"
GATED = "tests.server.runners:gated"
LOGGED = "tests.server.runners:logged"

TEST_RUNNERS = frozenset({ECHO, GATED, LOGGED})


def run_http(coro_fn, *, allowed_runners=TEST_RUNNERS, **core_kwargs):
    """Boot app + client on an ephemeral port, run the test body."""
    core_kwargs.setdefault("backend", "thread")

    async def _body():
        core = CompileServer(**core_kwargs)
        app = CompileServerApp(core, allowed_runners=allowed_runners)
        host, port = await app.start("127.0.0.1", 0)
        client = CompileServerClient(f"http://{host}:{port}")
        try:
            await coro_fn(client, core)
        finally:
            await app.close(drain=False)

    asyncio.run(_body())


class TestCompileRoundtrip:
    def test_compile_then_warm_hit_then_job_lookup(self, tmp_path):
        async def body(client, core):
            job = await client.compile(isax="dotprod", core="VexRiscv",
                                       priority="interactive", wait=True)
            assert job["state"] == "ok"
            assert job["cached"] is None
            assert "module " in job["result"]["verilog"]
            assert job["result"]["job_isax"] == "dotprod"

            warm = await client.compile(isax="dotprod", core="VexRiscv",
                                        wait=True)
            assert warm["state"] == "ok"
            assert warm["cached"] == "memory"
            assert warm["result"]["verilog"] == job["result"]["verilog"]

            # GET /v1/jobs/{id} (no result unless asked).
            fetched = await client.job(job["job_id"])
            assert fetched["state"] == "ok"
            assert "result" not in fetched
            fetched = await client.job(job["job_id"], include_result=True)
            assert fetched["result"]["verilog"] == job["result"]["verilog"]

            health = await client.healthz()
            assert health["status"] == "ok"
            metrics = await client.metrics()
            assert metrics["server"]["counters"]["completed"] == 2
            assert metrics["server"]["counters"]["cache_hits_memory"] == 1

        run_http(body, workers=1)

    def test_submit_without_wait_then_poll(self, tmp_path):
        async def body(client, core):
            accepted = await client.compile(isax="zol", core="VexRiscv",
                                            wait=False,
                                            include_result=False)
            assert accepted["state"] in ("queued", "running", "ok")
            job_id = accepted["job_id"]
            for _ in range(500):
                job = await client.job(job_id)
                if job["state"] == "ok":
                    break
                await asyncio.sleep(0.01)
            assert job["state"] == "ok"

        run_http(body, workers=1)

    def test_events_stream_replays_the_full_trace(self, tmp_path):
        async def body(client, core):
            job = await client.compile(isax="dotprod", core="VexRiscv",
                                       wait=True, include_result=False)
            events = [event async for event in client.events(job["job_id"])]
            names = [event["event"] for event in events]
            assert names == ["submitted", "queued", "started", "finished"]
            assert events[-1]["state"] == "ok"
            assert "phases" in events[-1]

        run_http(body, workers=1)

    def test_tasks_endpoint_runs_allowed_runners_only(self, tmp_path):
        async def body(client, core):
            job = await client.submit_task(runner=ECHO,
                                           payload={"value": 9},
                                           label="echo", wait=True)
            assert job["state"] == "ok"
            assert job["result"] == {"echo": 9}

            with pytest.raises(CompileServerError) as excinfo:
                await client.submit_task(runner="os:system",
                                         payload={"value": "rm -rf"})
            assert excinfo.value.status == 403

        run_http(body, workers=1)


class TestErrorPaths:
    def test_bad_requests_are_4xx_not_500(self, tmp_path):
        async def body(client, core):
            with pytest.raises(CompileServerError) as excinfo:
                await client.compile(isax="nonsense")
            assert excinfo.value.status == 400
            assert "unknown ISAX" in str(excinfo.value)

            for priority in ("urgent", ["batch"]):
                with pytest.raises(CompileServerError) as excinfo:
                    await client.compile(isax="dotprod", priority=priority)
                assert excinfo.value.status == 400

            with pytest.raises(CompileServerError) as excinfo:
                await client.job("j12345678")
            assert excinfo.value.status == 404

            with pytest.raises(CompileServerError) as excinfo:
                await client._request("GET", "/v1/nope")
            assert excinfo.value.status == 404

            with pytest.raises(CompileServerError) as excinfo:
                await client._request("GET", "/v1/compile")
            assert excinfo.value.status == 405

            with pytest.raises(CompileServerError) as excinfo:
                await client._request("POST", "/v1/tasks", {"runner": ECHO})
            assert excinfo.value.status == 400     # payload missing

            with pytest.raises(CompileServerError) as excinfo:
                await client._request(
                    "POST", "/v1/tasks",
                    {"runner": ECHO,
                     "payload": {"sim_engine": "verilator"}})
            assert excinfo.value.status == 400     # unknown sim engine
            assert "sim_engine" in str(excinfo.value)

            with pytest.raises(CompileServerError) as excinfo:
                await client._request(
                    "POST", "/v1/compile",
                    {"isax": "dotprod", "cycle_time_ns": "fast"})
            assert excinfo.value.status == 400
            assert "cycle_time_ns" in str(excinfo.value)

        run_http(body, workers=1)

    def test_malformed_content_length_is_400(self):
        async def body(client, core):
            reader, writer = await asyncio.open_connection(client.host,
                                                           client.port)
            writer.write(b"POST /v1/compile HTTP/1.1\r\n"
                         b"Content-Length: abc\r\n\r\n")
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(), 30)
            writer.close()
            await writer.wait_closed()
            assert status_line.startswith(b"HTTP/1.1 400 ")

        run_http(body, workers=1)

    def test_task_keys_must_be_content_digests(self, tmp_path):
        """The cache key is a filesystem path component downstream — the
        server only accepts hex digests, never client-chosen paths."""

        async def body(client, core):
            for hostile in (
                "00abcdef/../../../tmp/evil",   # traversal (hex shard
                                                # prefix, escaping suffix)
                "../../etc/passwd",
                "short",
                "G" * 32,                       # right length, not hex
                42,                             # not even a string
            ):
                with pytest.raises(CompileServerError) as excinfo:
                    await client.submit_task(runner=ECHO,
                                             payload={"value": 1},
                                             key=hostile, wait=False)
                assert excinfo.value.status == 400
            assert core.counters.submitted == 0
            # Nothing was ever written outside (or inside) the cache root.
            escape = tmp_path / "tmp" / "evil"
            assert not escape.exists()
            # A genuine digest is accepted and cached.
            job = await client.submit_task(runner=ECHO,
                                           payload={"value": 3},
                                           key=digest("good-key"),
                                           wait=True)
            assert job["state"] == "ok"

        run_http(body, workers=1,
                 disk_cache=ShardedArtifactCache(tmp_path / "cache",
                                                 shards=2))

    def test_full_queue_answers_429_with_retry_hint(self, tmp_path):
        async def body(client, core):
            blocker = {
                "log_path": str(tmp_path / "log.txt"),
                "gate_path": str(tmp_path / "gate"),
                "label": "blocker",
            }
            try:
                await client.submit_task(runner=GATED, payload=blocker,
                                         label="blocker", wait=False)
                # Wait for the lone worker to pick the blocker up.
                for _ in range(1000):
                    log = tmp_path / "log.txt"
                    if log.exists() and "start:blocker" in log.read_text():
                        break
                    await asyncio.sleep(0.005)
                await client.submit_task(
                    runner=LOGGED,
                    payload={"log_path": str(tmp_path / "log.txt"),
                             "label": "queued"},
                    wait=False)
                with pytest.raises(CompileServerError) as excinfo:
                    await client.submit_task(
                        runner=LOGGED,
                        payload={"log_path": str(tmp_path / "log.txt"),
                                 "label": "rejected"},
                        wait=False)
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after_s > 0
            finally:
                (tmp_path / "gate").write_text("open")
            # Everything accepted still completes.
            await client.drain(wait=True)
            assert core.counters.rejected_queue_full == 1
            assert core.counters.failed == 0

        run_http(body, workers=1, max_queue_depth=1)

    def test_draining_server_answers_503(self, tmp_path):
        async def body(client, core):
            answer = await client.drain(wait=True)
            assert answer["status"] == "draining"
            assert (await client.healthz())["status"] == "draining"
            with pytest.raises(CompileServerError) as excinfo:
                await client.compile(isax="dotprod")
            assert excinfo.value.status == 503

        run_http(body, workers=1)


class TestConcurrentClients:
    def test_many_concurrent_connections_coalesce(self, tmp_path):
        """A burst of identical compiles over real sockets collapses to
        one execution and every client still gets a full answer."""

        async def body(client, core):
            jobs = await asyncio.gather(*[
                client.compile(isax="sbox", core="PicoRV32", wait=True,
                               include_result=True)
                for _ in range(12)
            ])
            assert all(job["state"] == "ok" for job in jobs)
            verilogs = {job["result"]["verilog"] for job in jobs}
            assert len(verilogs) == 1
            counters = core.counters
            # One execution; everyone else coalesced or hit the warm tier.
            assert counters.executions == 1
            assert counters.coalesced + counters.cache_hits_memory == 11

        run_http(body, workers=2)

    def test_custom_source_compiles(self, tmp_path):
        async def body(client, core):
            source = ALL_ISAXES["dotprod"] + "\n// variant\n"
            job = await client.compile(source=source, isax="dotprod",
                                       core="VexRiscv", wait=True)
            assert job["state"] == "ok"
            assert job["result"]["verilog"]

        run_http(body, workers=1)
