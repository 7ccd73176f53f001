"""Every core compiled from one elaborated ISA shares one front end.

Lint, lowering and the optimizer never read the core (paper Figure 9), so
``compile_isax`` runs them once per ISA object and options and hands the
same lil graphs to every core's scheduler and hardware generator.  These
tests pin the sharing, that no back end or consumer edits a shared graph,
and that the memo holds nothing past its ISA.
"""

import copy
import gc
import sys
import threading
import weakref

import pytest

from repro.analysis.verifier import verify_artifact_ir
from repro.eval.asic import measure_artifacts
from repro.frontend import elaborate
from repro.hls import analyze_isax, compile_isax
from repro.hls.longnail import _front_end
from repro.ir.printer import print_graph
from repro.isaxes import ALL_ISAXES, DOTPROD, ZOL
from repro.opt.equiv import architectural_trace
from repro.opt.pipeline import OptOptions
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.sim.cosim import verify_artifact

ALL_CORES = CORES + EXPERIMENTAL_CORES
#: zol has an always-block; sqrt_tightly has the largest graph.
SHARED_ISAXES = ("zol", "sqrt_tightly")


def _compile_everywhere(source, opt):
    return [compile_isax(source, core, opt=opt, schedule_cache=False)
            for core in ALL_CORES]


@pytest.mark.parametrize("opt", [0, 2])
@pytest.mark.parametrize("isax", SHARED_ISAXES)
def test_cores_share_one_front_end(isax, opt):
    artifacts = _compile_everywhere(ALL_ISAXES[isax], opt)
    first = artifacts[0]
    for artifact in artifacts[1:]:
        assert artifact.isa is first.isa
        assert artifact.optimizer is first.optimizer
        assert artifact.diagnostics is first.diagnostics
        for name, functionality in first.functionalities.items():
            assert artifact.functionalities[name].graph is functionality.graph
    assert (first.optimizer is None) == (opt == 0)

    # A copy of the ISA is a new memo key: an independent front end that
    # emits the same bytes on every core.
    fresh = copy.copy(first.isa)
    for artifact in artifacts:
        again = compile_isax(fresh, artifact.core_name, opt=opt,
                             schedule_cache=False)
        for name, functionality in again.functionalities.items():
            assert functionality.graph is not \
                artifact.functionalities[name].graph
        assert again.verilog == artifact.verilog
        assert again.config_yaml == artifact.config_yaml


def _consume(artifact):
    """Every reader of a compiled artifact's graphs and modules."""
    report = verify_artifact(artifact, trials=2, seed=5)
    assert report.passed, str(report)
    assert not [d for d in verify_artifact_ir(artifact) if d.is_error]
    architectural_trace(artifact, trials=2, seed=5)
    analyze_isax(artifact)
    measure_artifacts(artifact.datasheet, [artifact])
    assert artifact.verilog and artifact.config_yaml


@pytest.mark.parametrize("opt", [0, 2])
@pytest.mark.parametrize("isax", SHARED_ISAXES)
def test_shared_graphs_are_read_only(isax, opt):
    """The shared graphs print exactly as a front end that no back end
    has seen, after every core compiled them and every consumer ran."""
    isa = elaborate(ALL_ISAXES[isax])
    untouched = _front_end(copy.copy(isa), OptOptions.coerce(opt),
                           lint=True, verify=False, phase_hook=None)
    expected = [print_graph(graph) for _, _, graph in untouched.graphs]

    artifacts = _compile_everywhere(isa, opt)
    for artifact in artifacts:
        _consume(artifact)
    for artifact in artifacts:
        printed = [print_graph(f.graph)
                   for f in artifact.functionalities.values()]
        assert printed == expected, artifact.core_name


def test_memo_keeps_only_the_latest_isa():
    """Compiling another ISA drops the first one's front end, although
    the elaboration memo keeps that first ISA alive."""
    first = compile_isax(ZOL, "VexRiscv", schedule_cache=False)
    graph = weakref.ref(first.functionalities["zol"].graph)
    compile_isax(DOTPROD, "VexRiscv", schedule_cache=False)
    del first
    gc.collect()
    assert graph() is None


def test_memo_entry_dies_with_its_isa():
    isa = copy.copy(elaborate(ZOL))
    artifacts = [compile_isax(isa, core, schedule_cache=False)
                 for core in ALL_CORES]
    isa_ref = weakref.ref(isa)
    graph = weakref.ref(artifacts[0].functionalities["zol"].graph)
    del isa, artifacts
    gc.collect()
    assert isa_ref() is None
    assert graph() is None


def test_threads_that_race_on_the_memo_emit_the_same_bytes():
    """Threads that alternate two ISAs miss and clear the memo under each
    other; none may see a half-built front end or another ISA's graphs."""
    sources = {"zol": ZOL, "dotprod": DOTPROD}
    expected = {
        (name, core): compile_isax(copy.copy(elaborate(source)), core,
                                   schedule_cache=False).verilog
        for name, source in sources.items() for core in ("ORCA", "CVA5")}
    mismatches, errors = [], []

    def worker(offset):
        try:
            for step in range(12):
                name = ("zol", "dotprod")[(step + offset) % 2]
                core = ("ORCA", "CVA5")[step // 2 % 2]
                verilog = compile_isax(sources[name], core,
                                       schedule_cache=False).verilog
                if verilog != expected[name, core]:
                    mismatches.append((name, core))
        except Exception as exc:       # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []
