"""Pricing runner: gates, records, cache keys, executor fan-out."""

import pytest

from repro.discover import codegen
from repro.discover.enumerate import enumerate_candidates
from repro.discover.kernel import resolve_kernel
from repro.discover.pricing import (
    PricingRequest,
    build_specs,
    price_candidates,
    run_pricing_payload,
)
from repro.eval.asic import evaluate_combination, measure_artifacts
from repro.hls.longnail import compile_isax
from repro.service.cache import ArtifactCache
from repro.service.executor import BatchExecutor


@pytest.fixture(scope="module")
def kernel():
    return resolve_kernel("array_sum", n=16)


@pytest.fixture(scope="module")
def full_cover(kernel):
    return enumerate_candidates(kernel)[0]


def _request(candidate, fold=False, **overrides):
    fields = dict(kernel="array_sum", params={"n": 16},
                  candidate=candidate, fold=fold, core="VexRiscv",
                  trials=2, seed=0)
    fields.update(overrides)
    return PricingRequest(**fields)


class TestRunnerRecord:
    def test_successful_record_is_complete(self, kernel, full_cover):
        record = run_pricing_payload(_request(full_cover).payload())
        assert record["ok"] is True
        assert record["failed_gate"] is None
        for key in ("source", "area_um2", "cycles", "makespan",
                    "instructions", "freq_mhz", "area_overhead_pct",
                    "result"):
            assert key in record, key
        assert record["lint_warnings"] == 0
        # The baseline is price_candidates' business, not the runner's.
        assert "baseline_cycles" not in record and "speedup" not in record

        (priced,), _ = price_candidates([_request(full_cover)],
                                        kernel.fingerprint())
        assert priced["cycles"] == record["cycles"]
        assert priced["speedup"] == priced["baseline_cycles"] / record[
            "cycles"]
        assert priced["speedup"] > 1.0

    def test_area_measures_the_priced_artifact(self, full_cover):
        """Area and frequency describe the -O2 compile that the gates and
        cycle counts used, not an -O0 recompile of the source."""
        record = run_pricing_payload(_request(full_cover).payload())
        assert record["ok"] is True
        artifact = compile_isax(record["source"], "VexRiscv", opt=2)
        measured = measure_artifacts(artifact.datasheet, [artifact])
        assert record["area_um2"] == measured.extension_area_um2
        assert record["freq_mhz"] == measured.freq_mhz
        unoptimized = evaluate_combination("VexRiscv", [record["source"]])
        assert record["area_um2"] != unoptimized.extension_area_um2

    def test_fold_variant_beats_plain(self, full_cover):
        plain = run_pricing_payload(_request(full_cover).payload())
        fold = run_pricing_payload(_request(full_cover, fold=True).payload())
        assert fold["ok"] and plain["ok"]
        # Both variants share one baseline, so fewer cycles is a higher
        # speedup.
        assert fold["cycles"] < plain["cycles"]

    def test_gate_failures_are_records_not_raises(self):
        kernel = resolve_kernel("audio_ml", words=4)
        small = next(c for c in enumerate_candidates(kernel) if c.size <= 3)
        payload = {
            "kernel": "audio_ml", "params": {"words": 4},
            "nodes": list(small.nodes), "fold": True,
            "core": "VexRiscv", "trials": 2, "seed": 0,
        }
        record = run_pricing_payload(payload)
        assert record["ok"] is False
        assert record["failed_gate"] == "codegen"
        assert "zero-overhead" in record["error"]


class TestCacheKeys:
    def test_key_is_stable_and_hex(self, full_cover):
        request = _request(full_cover)
        key = request.cache_key("fp")
        assert key == request.cache_key("fp")
        int(key, 16)

    def test_key_varies_with_fold_core_and_kernel(self, full_cover):
        base = _request(full_cover).cache_key("fp")
        assert _request(full_cover, fold=True).cache_key("fp") != base
        assert _request(full_cover, core="ORCA").cache_key("fp") != base
        assert _request(full_cover).cache_key("other-fp") != base
        assert _request(full_cover, kernel="k2").cache_key("fp") != base
        assert _request(full_cover,
                        params={"n": 64}).cache_key("fp") != base

    def test_specs_carry_keys_and_labels(self, full_cover):
        specs = build_specs([_request(full_cover, fold=True)], "fp")
        assert len(specs) == 1
        assert specs[0].label.endswith("+zol@VexRiscv")
        assert specs[0].key == _request(full_cover,
                                        fold=True).cache_key("fp")


class TestFanOut:
    def test_warm_rerun_is_all_cache_hits(self, kernel, full_cover,
                                          tmp_path):
        requests = [_request(full_cover), _request(full_cover, fold=True)]
        fingerprint = kernel.fingerprint()

        cold_exec = BatchExecutor(workers=1,
                                  cache=ArtifactCache(tmp_path / "c"))
        records, stats = price_candidates(requests, fingerprint,
                                          executor=cold_exec)
        assert [r["ok"] for r in records] == [True, True]
        assert stats == {"requested": 2, "executed": 2, "cached": 0,
                         "failed": 0}

        warm_exec = BatchExecutor(workers=1,
                                  cache=ArtifactCache(tmp_path / "c"))
        warm_records, warm_stats = price_candidates(
            requests, fingerprint, executor=warm_exec)
        assert warm_stats == {"requested": 2, "executed": 0, "cached": 2,
                              "failed": 0}
        assert warm_records[0]["speedup"] == records[0]["speedup"]

    def test_each_kernel_size_is_priced_on_its_own(self, kernel,
                                                   full_cover, tmp_path):
        """One candidate of one kernel at two sizes shares its structural
        digest and the call's one fingerprint; each request still gets
        the cycles of its own size."""
        requests = [_request(full_cover, params={"n": 64}),
                    _request(full_cover)]
        records, stats = price_candidates(
            requests, kernel.fingerprint(),
            executor=BatchExecutor(workers=1,
                                   cache=ArtifactCache(tmp_path / "c")))
        assert stats["executed"] == 2
        expected = [run_pricing_payload(r.payload())["cycles"]
                    for r in requests]
        assert expected[0] != expected[1]
        assert [r["cycles"] for r in records] == expected

    def test_transport_failure_becomes_synthetic_record(self, full_cover,
                                                        kernel):
        bad = _request(full_cover, kernel="not_registered")
        records, stats = price_candidates([bad], kernel.fingerprint())
        assert len(records) == 1
        assert records[0]["ok"] is False
        assert records[0]["failed_gate"] == "transport"
        assert stats["failed"] == 1


def _plant_baseline(monkeypatch, flip: int = 0) -> list:
    """Count artifact-free (software baseline) ``run_program`` calls by
    core; a nonzero ``flip`` corrupts the baseline's result."""
    cores = []
    original = codegen.run_program

    def run_program(kernel, program, core, artifacts=(), **kwargs):
        report, result = original(kernel, program, core,
                                  artifacts=artifacts, **kwargs)
        if not artifacts:
            cores.append(core)
            result ^= flip
        return report, result

    monkeypatch.setattr(codegen, "run_program", run_program)
    return cores


class TestBaselineOncePerSearch:
    def test_one_baseline_run_for_many_variants(self, kernel, monkeypatch):
        candidates = enumerate_candidates(kernel)[:2]
        requests = [_request(c, fold=fold)
                    for c in candidates for fold in (False, True)]
        cores = _plant_baseline(monkeypatch)
        records, _ = price_candidates(requests, kernel.fingerprint())
        assert cores == ["VexRiscv"]
        verified = [r for r in records if r["ok"]]
        assert verified
        assert len({r["baseline_cycles"] for r in verified}) == 1
        for record in records:
            assert ("speedup" in record) == record["ok"]

    def test_one_baseline_run_per_core(self, kernel, full_cover,
                                       monkeypatch):
        requests = [_request(full_cover), _request(full_cover, fold=True),
                    _request(full_cover, core="ORCA")]
        cores = _plant_baseline(monkeypatch)
        records, _ = price_candidates(requests, kernel.fingerprint())
        assert [r["ok"] for r in records] == [True, True, True]
        assert cores == ["VexRiscv", "ORCA"]

    def _assert_baseline_failed(self, records, stats):
        assert stats["failed"] == len(records)
        for record in records:
            assert record["ok"] is False
            assert record["failed_gate"] == "baseline-result"
            assert "baseline computed" in record["error"]
            assert "speedup" not in record
            assert "baseline_cycles" not in record

    def test_wrong_baseline_fails_executed_records(self, kernel, full_cover,
                                                   monkeypatch):
        requests = [_request(full_cover), _request(full_cover, fold=True)]
        _plant_baseline(monkeypatch, flip=1)
        records, stats = price_candidates(requests, kernel.fingerprint())
        assert stats["executed"] == 2
        self._assert_baseline_failed(records, stats)

    def test_wrong_baseline_fails_cached_records(self, kernel, full_cover,
                                                 monkeypatch, tmp_path):
        requests = [_request(full_cover), _request(full_cover, fold=True)]
        cache = ArtifactCache(tmp_path / "c")
        records, _ = price_candidates(
            requests, kernel.fingerprint(),
            executor=BatchExecutor(workers=1, cache=cache))
        assert [r["ok"] for r in records] == [True, True]

        _plant_baseline(monkeypatch, flip=1)
        records, stats = price_candidates(
            requests, kernel.fingerprint(),
            executor=BatchExecutor(workers=1, cache=cache))
        assert stats["cached"] == 2
        self._assert_baseline_failed(records, stats)

    def test_baseline_codegen_error_fails_ok_records_only(
            self, kernel, full_cover, monkeypatch):
        def no_baseline(kernel):
            raise codegen.CodegenError("planted baseline failure")

        monkeypatch.setattr(codegen, "baseline_program", no_baseline)
        bad = _request(full_cover, kernel="not_registered", fold=True)
        records, stats = price_candidates([_request(full_cover), bad],
                                          kernel.fingerprint())
        assert [r["failed_gate"] for r in records] == ["codegen",
                                                       "transport"]
        assert records[0]["error"] == "planted baseline failure"
        assert stats["failed"] == 2
