"""numpy and scipy load only when the MILP engine runs.

Only :func:`repro.scheduling.ilp.solve_milp` uses them.  A compile on the
default fast path plus its co-simulation must not import either: they cost
about 0.8 s of start-up and 40 MB of memory in every such process.
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


def test_fast_path_compile_and_cosim_load_neither_numpy_nor_scipy():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
