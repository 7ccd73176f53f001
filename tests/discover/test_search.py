"""End-to-end discovery search, Pareto selection, report round-trips."""

import json

import pytest

from repro.discover.search import (
    DiscoveryConfig,
    discover,
    dominates,
    pareto_front,
    render_report,
    write_report,
)
from repro.service import ArtifactCache, BatchExecutor

#: Execution settings older clients put in a discover payload.
TRANSPORT_KEYS = ("server_url", "priority", "workers", "cache_dir")


def _cached(path):
    return BatchExecutor(workers=1, cache=ArtifactCache(path))


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    config = DiscoveryConfig(kernel="array_sum", params={"n": 16},
                             budget=6, trials=2)
    return discover(config,
                    executor=_cached(tmp_path_factory.mktemp("cache")))


class TestDominance:
    def test_strictly_better_dominates(self):
        a = {"speedup": 2.0, "area_um2": 100.0}
        b = {"speedup": 1.5, "area_um2": 200.0}
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_tradeoff_points_do_not_dominate(self):
        fast_big = {"speedup": 2.0, "area_um2": 500.0}
        slow_small = {"speedup": 1.2, "area_um2": 50.0}
        assert not dominates(fast_big, slow_small)
        assert not dominates(slow_small, fast_big)

    def test_equal_points_do_not_dominate(self):
        a = {"speedup": 1.0, "area_um2": 10.0}
        assert not dominates(a, dict(a))

    def test_front_filters_failed_and_dominated(self):
        records = [
            {"ok": True, "speedup": 2.0, "area_um2": 100.0},
            {"ok": True, "speedup": 1.5, "area_um2": 200.0},  # dominated
            {"ok": True, "speedup": 1.0, "area_um2": 50.0},
            {"ok": False, "failed_gate": "cosim"},
        ]
        front = pareto_front(records)
        assert front == [records[0], records[2]]


class TestDiscoverEndToEnd:
    def test_finds_a_verified_winner(self, report):
        assert report.winner is not None
        assert report.winner["ok"]
        assert report.winner["speedup"] > 1.0
        assert report.candidates_enumerated >= 3
        assert report.variants_priced <= 6

    def test_pareto_members_are_nondominated(self, report):
        for member in report.pareto:
            for other in report.verified:
                assert not dominates(other, member) or other is member

    def test_winner_is_the_fastest_front_member(self, report):
        best = max(report.pareto, key=lambda r: r["speedup"])
        assert report.winner["speedup"] == best["speedup"]

    def test_budget_caps_variants(self, tmp_path):
        config = DiscoveryConfig(kernel="array_sum", params={"n": 16},
                                 budget=2, trials=2)
        capped = discover(config, executor=_cached(tmp_path))
        assert capped.variants_priced == 2

    def test_report_roundtrips_to_json(self, report):
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["winner"]["digest"] == report.winner["digest"]
        assert parsed["config"]["kernel"] == "array_sum"

    def test_render_mentions_winner_and_stats(self, report):
        text = render_report(report)
        assert report.winner["label"] in text
        assert "from cache" in text

    def test_write_report_persists_winner_coredsl(self, report, tmp_path):
        paths = write_report(report, tmp_path)
        assert paths["report"].exists()
        winner = paths["winner"].read_text()
        assert winner == report.winner["source"]
        assert "InstructionSet" in winner or "instructions" in winner


class TestConfigPayload:
    def test_roundtrip(self):
        config = DiscoveryConfig(kernel="audio_ml", params={"words": 8},
                                 core="ORCA", budget=3)
        clone = DiscoveryConfig.from_payload(config.to_payload())
        assert clone == config

    def test_server_url_never_ships(self):
        """Where a search is priced is not part of the search: old
        clients' execution settings are ignored and never sent on."""
        config = DiscoveryConfig(kernel="array_sum")
        payload = config.to_payload()
        assert not set(TRANSPORT_KEYS) & set(payload)
        old_client = dict(payload, server_url="http://evil:1",
                          priority="interactive", workers=8,
                          cache_dir="/nonexistent")
        assert DiscoveryConfig.from_payload(old_client) == config

    def test_kernel_required(self):
        with pytest.raises(ValueError):
            DiscoveryConfig.from_payload({"budget": 4})

    def test_params_coerced_to_int(self):
        config = DiscoveryConfig.from_payload(
            {"kernel": "array_sum", "params": {"n": "32"}})
        assert config.params == {"n": 32}

    def test_non_dict_params_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryConfig.from_payload(
                {"kernel": "array_sum", "params": [1, 2]})
