"""Campaign driver end-to-end: clean runs pass, an injected comb-op fault
is caught, reduced to a fraction of the original program, and
deduplicated across seeds in the corpus (ISSUE acceptance scenario)."""

import json
import os

import pytest

from repro.dialects import comb
from repro.fuzz import (
    FuzzBudget,
    FuzzConfig,
    FuzzCorpus,
    run_campaign,
)
from repro.fuzz import campaign as campaign_module
from repro.fuzz.corpus import canonical_digest
from repro.fuzz.generator import FuzzProgram


def _planted_program(seed: int) -> FuzzProgram:
    """A large program whose only interesting statement is one XOR: the
    reduction target for the broken-comb.xor fault."""
    filler = "\n        ".join(
        f"unsigned<32> f{i} = (unsigned<32>) ((va + {i}) * 3);"
        for i in range(30))
    source = f'''import "RV32I.core_desc"

InstructionSet fuzz_s{seed} extends RV32I {{
  instructions {{
    fz{seed}_0 {{
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {{
        unsigned<32> va = X[rs1];
        unsigned<32> vb = X[rs2];
        {filler}
        X[rd] = (unsigned<32>) ((va ^ vb));
      }}
    }}
  }}
}}
'''
    return FuzzProgram(seed=seed, source=source, name=f"fuzz_s{seed}",
                       features=frozenset({"planted"}))


def test_clean_campaign_passes(tmp_path):
    config = FuzzConfig(seeds=4, trials=2, cores=("VexRiscv",),
                        out_dir=str(tmp_path / "out"))
    result = run_campaign(config)
    assert result.ok
    assert result.programs == 4
    assert not result.failing_seeds
    assert os.path.exists(result.stats_path)
    stats = json.loads(open(result.stats_path).read())
    assert stats["status_counts"] == {"pass": 4}
    assert stats["corpus_size"] == 0


def test_injected_fault_caught_reduced_deduplicated(tmp_path, monkeypatch):
    """Two seeds hit the same planted bug; the campaign must report both,
    reduce each reproducer to <= 25% of the original program, and store
    exactly one corpus entry."""
    monkeypatch.setitem(comb._BINARY_EVAL, "comb.xor",
                        lambda a, b, w: (a ^ b) ^ 1)
    monkeypatch.setattr(campaign_module, "generate_program",
                        lambda seed, budget=None: _planted_program(seed))
    out = str(tmp_path / "out")
    # sim_engine="interp": the fault lives in the interpreter's eval table
    # and must actually be executed by the cosim oracle.
    config = FuzzConfig(seeds=2, seed_start=40, trials=3,
                        cores=("VexRiscv",), out_dir=out,
                        sim_engine="interp")
    result = run_campaign(config)

    assert result.failing_seeds == [40, 41]
    # The broken interpreter xor trips two oracles: cosim (interpreter
    # vs golden model) and batchsim (interpreter vs the compiled and the
    # numpy batched engines).
    # Deduplication: both seeds map onto one canonical reproducer per kind.
    assert len(result.reproducers) == 4
    assert len(result.new_reproducers) == 2
    corpus = FuzzCorpus(out)
    assert len(corpus) == 2
    kinds = sorted(entry.split("-")[0] for entry in corpus.entries())
    assert kinds == ["batchsim", "cosim"]
    name = next(entry for entry in corpus.entries()
                if entry.startswith("cosim-"))

    # Reduction quality: <= 25% of the original planted program.
    meta = json.loads(open(
        os.path.join(out, "reproducers", f"{name}.json")).read())
    assert meta["reduced_bytes"] <= meta["original_bytes"] * 0.25
    reduced = open(os.path.join(
        out, "reproducers", f"{name}.core_desc")).read()
    assert "^" in reduced                  # the bug trigger survived
    assert "f29" not in reduced            # the filler did not

    stats = json.loads(open(result.stats_path).read())
    assert stats["failing_seeds"] == [40, 41]
    assert stats["corpus_size"] == 2


@pytest.mark.parametrize("bad", [{"sim_engine": "verilator"},
                                 {"oracles": ("bogus",)}])
def test_config_errors_raise_before_any_seed_runs(tmp_path, monkeypatch,
                                                   bad):
    """A bad engine or oracle name is the caller's error, not a generator
    bug: it must raise instead of marking every seed ``invalid``."""
    def no_generation(seed, budget=None):
        raise AssertionError("a seed ran despite the bad config")

    monkeypatch.setattr(campaign_module, "generate_program", no_generation)
    config = FuzzConfig(seeds=1, seed_start=3, cores=("VexRiscv",),
                        out_dir=str(tmp_path / "out"), **bad)
    with pytest.raises(ValueError):
        run_campaign(config)


def test_worker_pool_matches_inline(tmp_path):
    """workers>1 goes through the process pool; same outcomes, same
    order (the executor keeps results in input order)."""
    inline = run_campaign(FuzzConfig(
        seeds=3, trials=2, cores=("VexRiscv",), workers=1,
        out_dir=str(tmp_path / "inline")))
    pooled = run_campaign(FuzzConfig(
        seeds=3, trials=2, cores=("VexRiscv",), workers=2,
        out_dir=str(tmp_path / "pooled")))
    assert [o.status for o in inline.outcomes] == \
           [o.status for o in pooled.outcomes]
    assert [o.seed for o in pooled.outcomes] == [0, 1, 2]


def test_corpus_dedups_across_seed_stamps(tmp_path):
    corpus = FuzzCorpus(str(tmp_path / "corpus"))
    a = _planted_program(7).source
    b = _planted_program(8).source
    assert a != b                          # stamps differ...
    assert canonical_digest("cosim", a) == canonical_digest("cosim", b)
    name_a, new_a = corpus.add("cosim", a, meta={"seed": 7})
    name_b, new_b = corpus.add("cosim", b, meta={"seed": 8})
    assert new_a and not new_b
    assert name_a == name_b
    # Same program under a different oracle kind is a distinct entry.
    name_c, new_c = corpus.add("schedule", a)
    assert new_c and name_c != name_a
    assert len(corpus) == 2


def test_budget_flows_through_payload(tmp_path):
    config = FuzzConfig(seeds=2, trials=1, cores=("VexRiscv",),
                        budget=FuzzBudget.scaled(3),
                        out_dir=str(tmp_path / "out"))
    result = run_campaign(config)
    assert result.ok
    stats = json.loads(open(result.stats_path).read())
    assert stats["budget"]["statements"] == 3
