"""Dump every co-simulation output over the grid and a fuzz corpus.

Run it on two commits and compare the files: a refactor of the cosim
harness, a simulation engine or an oracle must leave them byte-identical::

    PYTHONPATH=src python benchmarks/cosim_parity.py parity.json

Inputs:

* all 40 grid cells (8 Table 3 ISAXes x 5 cores) at ``-O2``, 25 trials;
* the 13-program fuzz corpus of the benchmark's fuzz workload
  (``perfbench/workloads.py``, ``FUZZ_CORPUS_SEED = 0``) on the 4
  ``DEFAULT_CORES`` at ``-O0``, 8 trials.

Recorded per cell, for each of the ``interp``, ``compiled`` and
``batched`` engines: the ``architectural_trace`` text and the
``verify_artifact`` trial count and failures.  Per fuzz program it also
records the ``run_oracles`` verdict and failures (default oracles under
``batched`` and ``auto``, plus ``optequiv``).  How many trials ran
lane-parallel (``batched_trials``) is left out on purpose: it is a
property of the harness, not an output.

The ``hardware`` key fingerprints the emitted hardware: the sha256 of the
SystemVerilog plus the SCAIE-V YAML of every grid cell at ``-O0`` and
``-O2`` and of every fuzz program x core at ``-O0``.  So one file per
commit shows that the generated RTL did not move either.

The ``golden`` key holds the CoreDSL golden model's effects of every
trial, each :class:`~repro.sim.coredsl_interp.Effect` as a list, from
:func:`cosim_lanes` on :func:`draw_trials` stimuli: per grid cell at
``-O2`` with the grid's trials and seed, per fuzz program x core at
``-O0`` with the fuzz trials and seed.  A cosim trial only records
whether the RTL matched, so this is what shows a change to the golden
model itself.

The ``discover`` key holds the records of :func:`discover` on
``array_sum`` and ``audio_ml`` (default parameters, VexRiscv), without
the run-dependent ``seconds`` and ``cached`` fields: the verdict, gate,
cycles, baseline cycles, speedup and area of every priced variant.

The ``enumerate`` key holds the candidate lists of
:func:`enumerate_candidates` with default limits, in order, each candidate
with its nodes, inputs, output, carries, loads and digest: for
``array_sum`` and ``audio_ml``, and for :func:`random_kernel` at seeds
0-49 and sizes 4, 6 and 8.

The ``iss`` key pins the instruction-set simulator and the core timing
models: the Section 5.5 array-sum programs at n = 8 and 33 and the
Section 5.6 programs, baseline and ISAX, on the four paper cores.  Per
run it holds a sha256 over every retired record's ``(pc, word, kind, rd,
rs_used, taken, isax, next_pc)`` and the final registers, and the
report's cycles, instret, stall and ISAX-busy cycles.  A record's
``mnemonic`` and ``effects`` are left out: they name and describe the
instruction, which the timing models do not read.

``--compare BASE HEAD`` prints which top-level keys differ between two
dumps, or that none do::

    python benchmarks/cosim_parity.py --compare base.json head.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
from unittest import mock

from repro import workloads

from repro.discover.enumerate import enumerate_candidates
from repro.discover.kernel import random_kernel, resolve_kernel
from repro.discover.search import DiscoveryConfig, discover
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import DEFAULT_CORES, run_oracles
from repro.hls.longnail import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.opt.equiv import architectural_trace
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.sim.cosim import cosim_lanes, draw_trials, verify_artifact
from repro.sim.riscv import CoreTimingModel

ENGINES = ("interp", "compiled", "batched")
GRID_TRIALS, FUZZ_TRIALS, FUZZ_COSIM_SEED = 25, 8, 5
DISCOVER_KERNELS = ("array_sum", "audio_ml")
ISS_ARRAY_SIZES = (8, 33)
ENUMERATE_SEEDS, ENUMERATE_SIZES = range(50), (4, 6, 8)


def fuzz_corpus(programs: int = 13, pool: int = 16) -> list:
    """The benchmark's fuzz corpus: ``pool`` candidate seeds per slot,
    sorted by source length, one pick per stratum."""
    rng = random.Random("fuzz-corpus:0")
    seeds = sorted({rng.randrange(1 << 20, 1 << 31)
                    for _ in range(programs * pool)})
    seeds.sort(key=lambda s: (len(generate_program(s).source), s))
    strata = [seeds[i * len(seeds) // programs:
                    (i + 1) * len(seeds) // programs]
              for i in range(programs)]
    return [rng.choice(stratum) for stratum in strata]


def cell(artifact, trials: int, seed: int) -> dict:
    record = {}
    for engine in ENGINES:
        report = verify_artifact(artifact, trials=trials, seed=seed,
                                 sim_engine=engine)
        record[engine] = {
            "trace": architectural_trace(artifact, trials=trials, seed=seed,
                                         sim_engine=engine),
            "trials": report.trials,
            "failures": [[f.functionality,
                          [[m.kind, m.detail] for m in f.mismatches]]
                         for f in report.failures],
        }
    return record


def golden(artifact, trials: int, seed: int) -> dict:
    """Golden effects of every trial, drawn as ``verify_artifact`` draws
    them."""
    rng = random.Random(seed)
    return {name: [[list(dataclasses.astuple(effect))
                    for effect in result.golden_effects]
                   for result in cosim_lanes(
                       artifact, name,
                       draw_trials(artifact, name, trials, rng))]
            for name in artifact.functionalities}


def fingerprint(artifact) -> str:
    """sha256 of the artifact's SystemVerilog and SCAIE-V YAML."""
    text = artifact.verilog + "\0" + artifact.config_yaml
    return hashlib.sha256(text.encode()).hexdigest()


def discovery_records(kernel: str) -> list:
    """Every priced record of a default search, minus its timing and
    cache provenance."""
    report = discover(DiscoveryConfig(kernel=kernel))
    return [{key: value for key, value in record.items()
             if key not in ("seconds", "cached")}
            for record in report.records]


def enumeration(kernel) -> list:
    """Every candidate of a default enumeration, in order."""
    return [dataclasses.asdict(candidate)
            for candidate in enumerate_candidates(kernel)]


class _RecordingModel(CoreTimingModel):
    """A core timing model that appends a digest of each run to ``runs``."""

    runs: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        digest, step = hashlib.sha256(), self.sim.step

        def recorded():
            record = step()
            digest.update(json.dumps([
                record.pc, record.word, record.kind, record.rd,
                record.rs_used, record.taken, record.isax,
                record.next_pc]).encode())
            return record
        self.sim.step = recorded
        self.digest = digest

    def run(self, *args, **kwargs):
        report = super().run(*args, **kwargs)
        self.digest.update(json.dumps(
            [report.state.read_x(i) for i in range(32)]).encode())
        self.runs.append({"sha256": self.digest.hexdigest(),
                          "cycles": report.cycles, "instret": report.instret,
                          "stall_cycles": report.stall_cycles,
                          "isax_busy_cycles": report.isax_busy_cycles})
        return report


def iss_runs(run) -> list:
    """Digests of the core-model runs that ``run()`` makes, in order."""
    _RecordingModel.runs = []
    with mock.patch.object(workloads, "CoreTimingModel", _RecordingModel):
        run()
    return _RecordingModel.runs


def verdict(report) -> list:
    return [report.ok, [[f.kind, f.core, f.detail] for f in report.failures]]


def compare(base_path: str, head_path: str) -> str:
    with open(base_path, encoding="utf-8") as base_file, \
            open(head_path, encoding="utf-8") as head_file:
        base, head = json.load(base_file), json.load(head_file)
    moved = sorted(key for key in base.keys() | head.keys()
                   if base.get(key) != head.get(key))
    return f"outputs moved: {', '.join(moved)}" if moved \
        else "outputs unchanged"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="print the keys that differ between two dumps")
    args = parser.parse_args()
    if args.compare:
        print(compare(*args.compare))
        return
    if args.out is None:
        parser.error("the output file is required")

    doc: dict = {"grid": {}, "fuzz": {}, "oracles": {}, "hardware": {},
                 "golden": {}}
    doc["discover"] = {kernel: discovery_records(kernel)
                       for kernel in DISCOVER_KERNELS}
    doc["enumerate"] = {kernel: enumeration(resolve_kernel(kernel))
                        for kernel in DISCOVER_KERNELS}
    for seed in ENUMERATE_SEEDS:
        for size in ENUMERATE_SIZES:
            doc["enumerate"][f"random/{seed}/{size}"] = enumeration(
                random_kernel(seed, size))
    doc["iss"] = {}
    for core in CORES:
        for n in ISS_ARRAY_SIZES:
            doc["iss"][f"array_sum/{n}@{core}"] = iss_runs(
                lambda: workloads.run_array_sum(n, core))
        doc["iss"][f"audio_ml@{core}"] = iss_runs(
            lambda: workloads.run_audio_ml(core))
    for isax in sorted(ALL_ISAXES):
        for core in (*CORES, *EXPERIMENTAL_CORES):
            doc["hardware"][f"{isax}@{core}/O0"] = fingerprint(
                compile_isax(ALL_ISAXES[isax], core))
            artifact = compile_isax(ALL_ISAXES[isax], core, opt=2)
            doc["hardware"][f"{isax}@{core}/O2"] = fingerprint(artifact)
            doc["grid"][f"{isax}@{core}"] = cell(artifact, GRID_TRIALS, 0)
            doc["golden"][f"{isax}@{core}"] = golden(artifact, GRID_TRIALS, 0)
    doc["corpus"] = fuzz_corpus()
    for seed in doc["corpus"]:
        source = generate_program(seed).source
        for core in DEFAULT_CORES:
            artifact = compile_isax(source, core, engine="fastpath",
                                    schedule_cache=False)
            doc["hardware"][f"{seed}@{core}/O0"] = fingerprint(artifact)
            doc["fuzz"][f"{seed}@{core}"] = cell(artifact, FUZZ_TRIALS,
                                                 FUZZ_COSIM_SEED)
            doc["golden"][f"{seed}@{core}"] = golden(artifact, FUZZ_TRIALS,
                                                     FUZZ_COSIM_SEED)
        for engine in ("batched", "auto"):
            doc["oracles"][f"{seed}/{engine}"] = verdict(run_oracles(
                source, trials=FUZZ_TRIALS, cosim_seed=FUZZ_COSIM_SEED,
                sim_engine=engine))
        doc["oracles"][f"{seed}/optequiv"] = verdict(run_oracles(
            source, trials=FUZZ_TRIALS, cosim_seed=FUZZ_COSIM_SEED,
            sim_engine="batched", oracles=("optequiv",)))

    text = json.dumps(doc, indent=0, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{args.out}: sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
