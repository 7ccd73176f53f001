"""Pricing runner: gates, records, cache keys, executor fan-out."""

import pytest

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
    def test_successful_record_is_complete(self, full_cover):
        record = run_pricing_payload(_request(full_cover).payload())
        assert record["ok"] is True
        assert record["failed_gate"] is None
        for key in ("source", "speedup", "area_um2", "cycles",
                    "baseline_cycles", "makespan", "instructions",
                    "freq_mhz", "area_overhead_pct"):
            assert key in record, key
        assert record["speedup"] > 1.0
        assert record["lint_warnings"] == 0

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
        assert fold["speedup"] > plain["speedup"]

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

    def test_transport_failure_becomes_synthetic_record(self, full_cover,
                                                        kernel):
        bad = _request(full_cover, kernel="not_registered")
        records, stats = price_candidates([bad], kernel.fingerprint())
        assert len(records) == 1
        assert records[0]["ok"] is False
        assert records[0]["failed_gate"] == "transport"
        assert stats["failed"] == 1
