"""Integration: optimizer config through compile_isax, caches, service,
metrics, and the HTTP surface."""

import asyncio

import pytest

from repro.hls.longnail import compile_isax
from repro.isaxes import isax_source
from repro.opt.pipeline import OptOptions
from repro.scheduling.cache import ScheduleCache
from repro.server import CompileServer, CompileServerApp, CompileServerClient
from repro.server.client import CompileServerError
from repro.service.executor import run_compile_payload
from repro.service.jobs import CACHE_FORMAT_VERSION, CompileJob, job_grid
from repro.service.metrics import BatchMetrics, JobMetrics


def run_http(coro_fn, **core_kwargs):
    core_kwargs.setdefault("backend", "thread")

    async def _body():
        core = CompileServer(**core_kwargs)
        app = CompileServerApp(core)
        host, port = await app.start("127.0.0.1", 0)
        client = CompileServerClient(f"http://{host}:{port}")
        try:
            await coro_fn(client, core)
        finally:
            await app.close(drain=False)

    asyncio.run(_body())


class TestCacheKeys:
    def test_cache_format_version_bumped(self):
        # "2" introduced the optimizer fingerprint in the key material.
        assert CACHE_FORMAT_VERSION == "2"

    def test_opt_level_separates_cache_keys(self):
        keys = {
            CompileJob(isax="autoinc", source=isax_source("autoinc"),
                       core="VexRiscv", opt_level=level).cache_key()
            for level in (0, 1, 2)
        }
        assert len(keys) == 3

    def test_pass_overrides_separate_cache_keys(self):
        base = CompileJob(isax="autoinc", source=isax_source("autoinc"),
                          core="VexRiscv", opt_level=2)
        tuned = CompileJob(isax="autoinc", source=isax_source("autoinc"),
                           core="VexRiscv", opt_level=2,
                           opt_passes=("-share",))
        assert base.cache_key() != tuned.cache_key()

    def test_payload_roundtrip(self):
        job = CompileJob(isax="sbox", source=isax_source("sbox"), core="ORCA",
                         opt_level=2, opt_passes=("-share", "strength"))
        clone = CompileJob.from_payload(job.to_payload())
        assert clone == job
        assert clone.opt_options().pipeline() == job.opt_options().pipeline()

    def test_job_grid_propagates_opt_config(self):
        jobs = job_grid(["autoinc"], ["VexRiscv", "ORCA"], opt_level=1,
                        opt_passes=("strength",))
        assert len(jobs) == 2
        for job in jobs:
            assert job.opt_level == 1
            assert "strength" in job.opt_options().pipeline()

    def test_job_grid_rejects_bad_passes(self):
        with pytest.raises(ValueError):
            job_grid(["autoinc"], ["VexRiscv"], opt_passes=("inliner",))


class TestCrossLevelScheduleCache:
    def test_hits_match_cold_compiles(self):
        """One schedule cache serves every -O level: entries are reused
        across levels and never change the emitted hardware."""
        cache = ScheduleCache()
        source = isax_source("autoinc")
        for level in (0, 2, 1):
            shared = compile_isax(source, "VexRiscv", schedule_cache=cache,
                                  opt=level)
            cold = compile_isax(source, "VexRiscv", schedule_cache=False,
                                opt=level)
            assert shared.verilog == cold.verilog
            assert shared.config_yaml == cold.config_yaml
        assert cache.hits > 0


class TestCompileIsaxOpt:
    def test_o2_shrinks_and_never_slows(self):
        baseline = compile_isax(isax_source("dotprod"), "VexRiscv",
                                schedule_cache=False)
        optimized = compile_isax(isax_source("dotprod"), "VexRiscv",
                                 schedule_cache=False, opt=2)
        assert optimized.optimizer is not None
        report = optimized.optimizer
        assert report.nodes_after < report.nodes_before
        for name, fn in optimized.functionalities.items():
            fn.graph.verify()
            assert fn.schedule.makespan <= \
                baseline.functionalities[name].schedule.makespan

    def test_o0_has_no_report(self):
        artifact = compile_isax(isax_source("autoinc"), "VexRiscv",
                                schedule_cache=False)
        assert artifact.optimizer is None

    def test_opt_accepts_bare_int_and_options(self):
        via_int = compile_isax(isax_source("autoinc"), "VexRiscv",
                               schedule_cache=False, opt=1)
        via_options = compile_isax(isax_source("autoinc"), "VexRiscv",
                                   schedule_cache=False,
                                   opt=OptOptions(level=1))
        a, b = via_int.optimizer.to_dict(), via_options.optimizer.to_dict()
        for timed in (a, b):
            timed.pop("seconds")
            for stats in timed["passes"].values():
                stats.pop("seconds")
        assert a == b


class TestServiceMetrics:
    def test_run_compile_payload_reports_optimizer(self):
        record = run_compile_payload(
            CompileJob(isax="autoinc", source=isax_source("autoinc"),
                       core="VexRiscv", opt_level=2).to_payload())
        assert record["optimizer"]
        assert record["optimizer"]["node_reduction_pct"] > 0

    def test_o0_payload_reports_empty_optimizer(self):
        record = run_compile_payload(
            CompileJob(isax="autoinc", source=isax_source("autoinc"),
                       core="VexRiscv").to_payload())
        assert record["optimizer"] == {}

    def test_batch_metrics_aggregates_optimizer(self):
        metrics = BatchMetrics()
        metrics.jobs.append(JobMetrics(
            job_id="a/VexRiscv", isax="a", core="VexRiscv", status="ok",
            cached=False, attempts=1, seconds=0.1, phases={}, ilp=[],
            optimizer={"graphs": 2, "nodes_before": 100, "nodes_after": 80,
                       "ops_removed": 15, "ops_rewritten": 5,
                       "seconds": 0.01,
                       "passes": {"cse": {"runs": 2, "ops_removed": 10,
                                          "ops_rewritten": 0,
                                          "seconds": 0.004}}}))
        metrics.jobs.append(JobMetrics(
            job_id="b/VexRiscv", isax="b", core="VexRiscv", status="ok",
            cached=False, attempts=1, seconds=0.1, phases={}, ilp=[],
            optimizer={"graphs": 1, "nodes_before": 50, "nodes_after": 45,
                       "ops_removed": 5, "ops_rewritten": 0,
                       "seconds": 0.005,
                       "passes": {"cse": {"runs": 1, "ops_removed": 5,
                                          "ops_rewritten": 0,
                                          "seconds": 0.002}}}))
        totals = metrics.optimizer_totals()
        assert totals["jobs"] == 2
        assert totals["graphs"] == 3
        assert totals["nodes_before"] == 150
        assert totals["nodes_after"] == 125
        assert totals["node_reduction_pct"] == pytest.approx(16.67, abs=0.01)
        assert totals["passes"]["cse"]["runs"] == 3
        assert "optimizer" in metrics.to_dict()

    def test_optimizer_totals_empty_without_reports(self):
        metrics = BatchMetrics()
        metrics.jobs.append(JobMetrics(
            job_id="a/VexRiscv", isax="a", core="VexRiscv", status="ok",
            cached=False, attempts=1, seconds=0.1, phases={}, ilp=[]))
        totals = metrics.optimizer_totals()
        assert totals["jobs"] == 0


class TestHttpOptSurface:
    def test_compile_with_opt_level(self):
        async def body(client, core):
            job = await client.compile(isax="autoinc", core="VexRiscv",
                                       opt_level=2, wait=True)
            assert job["state"] == "ok"
            metrics = await client.metrics()
            totals = metrics["optimizer"]
            assert totals["jobs"] == 1
            assert totals["node_reduction_pct"] > 0

        run_http(body, workers=1)

    def test_opt_level_separates_server_cache(self):
        async def body(client, core):
            cold = await client.compile(isax="autoinc", core="VexRiscv",
                                        wait=True)
            assert cold["cached"] is None
            tuned = await client.compile(isax="autoinc", core="VexRiscv",
                                         opt_level=2, wait=True)
            assert tuned["cached"] is None  # distinct key, no false hit
            warm = await client.compile(isax="autoinc", core="VexRiscv",
                                        opt_level=2, wait=True)
            assert warm["cached"] == "memory"

        run_http(body, workers=1)

    @pytest.mark.parametrize("bad_level", (3, -1, True, "2"))
    def test_bad_opt_level_is_400(self, bad_level):
        async def body(client, core):
            with pytest.raises(CompileServerError) as err:
                await client._request("POST", "/v1/compile", {
                    "isax": "autoinc", "core": "VexRiscv",
                    "opt_level": bad_level, "wait": True,
                })
            assert err.value.status == 400

        run_http(body, workers=1)

    @pytest.mark.parametrize("bad_passes", ("cse", ["inliner"], [1]))
    def test_bad_opt_passes_is_400(self, bad_passes):
        async def body(client, core):
            with pytest.raises(CompileServerError) as err:
                await client._request("POST", "/v1/compile", {
                    "isax": "autoinc", "core": "VexRiscv",
                    "opt_passes": bad_passes, "wait": True,
                })
            assert err.value.status == 400

        run_http(body, workers=1)
