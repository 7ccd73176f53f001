"""numpy and scipy load only when the MILP engine runs.

Only :func:`repro.scheduling.ilp.solve_milp` uses them.  A compile on the
default fast path plus its co-simulation must not import either, and nor
must the default fuzz oracles, whose ``schedule`` oracle checks each
schedule's certificate instead of re-solving it: they cost about 0.8 s of
start-up and 40 MB of memory in every such process.
"""

import os
import pathlib
import subprocess
import sys

import repro

PROBE = """
import sys
import repro.hls
from repro.hls import compile_isax
from repro.isaxes import ZOL
from repro.sim.cosim import verify_artifact

artifact = compile_isax(ZOL, "VexRiscv", engine="fastpath")
assert verify_artifact(artifact, trials=2).passed
print(sorted(name for name in ("numpy", "scipy") if name in sys.modules))
"""

ORACLES_PROBE = """
import sys
from repro.fuzz import generate_program, run_oracles

report = run_oracles(generate_program(3).source, cores=("VexRiscv",),
                     trials=2)
assert report.ok, [str(failure) for failure in report.failures]
print(sorted(name for name in ("numpy", "scipy") if name in sys.modules))
"""


def loaded_after(probe):
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_fast_path_compile_and_cosim_load_neither_numpy_nor_scipy():
    assert loaded_after(PROBE) == "[]"


def test_default_fuzz_oracles_load_neither_numpy_nor_scipy():
    assert loaded_after(ORACLES_PROBE) == "[]"
