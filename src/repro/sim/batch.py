"""Batched (lane-parallel) RTL simulation over numpy arrays.

One :class:`BatchedSimulator` evaluates N independent stimulus lanes of the
same :class:`HWModule` per cycle: every SSA value of the netlist becomes a
length-N numpy array, so the per-op interpreter/codegen overhead is paid
once per *operation* instead of once per operation *per stimulus*.  The
code generator lives in :func:`repro.sim.compile.compile_module_batch`;
this module provides the vectorized arithmetic helpers the generated
``step_batch`` calls into and the simulator facade around it.

Lane layout (also documented in ``docs/simulation.md``):

* ``i1`` values ride in **bool lanes**;
* widths 2..64 ride in **uint64 lanes** with lazy masking (add/sub/mul
  chains stay unmasked until an observation point, exploiting that
  ``Z/2^64 -> Z/2^w`` is a ring homomorphism);
* widths > 64 ride in **object-dtype lanes** of Python ints — the
  arbitrary-precision fallback, bit-exact by construction.

Division/modulo by zero, shifts >= width, arithmetic shifts and
out-of-range ROM indices reproduce the scalar engines' RISC-V semantics
exactly (``np.where``-based selects, clamped shift counts, bounds-masked
table takes); the three-way trace-parity oracle
(:func:`repro.sim.compile.crosscheck_engines` with a batched arm) holds
the engines to byte-identical traces on every lane.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dialects.hw import HWModule
from repro.ir.core import IRError
from repro.utils.bits import mask

_U64 = np.uint64
_LANE_DTYPE = {"b": np.bool_, "u": np.uint64, "o": object}


# ---------------------------------------------------------------------------
# Vectorized helpers called from generated step_batch code.
#
# Every helper is dtype-agnostic: the same formula runs on uint64 lanes
# (mod-2^64 wraparound, suppressed overflow warnings) and object lanes
# (Python ints).  ``m`` is the result-width mask in the matching flavor
# (np.uint64 or int); ``w`` is the width itself.  Semantics mirror
# repro.dialects.comb._eval_* bit for bit.
# ---------------------------------------------------------------------------

def bool_to_uint64(x):
    """Bool lanes -> uint64 lanes (0/1)."""
    return x.astype(_U64)


def lift_object(x):
    """Native lanes -> object lanes of Python ints.  Scalars become 0-d
    object arrays so downstream ops keep numpy operator semantics."""
    if np.ndim(x) == 0:
        return np.array(int(x), dtype=object)
    if x.dtype == np.bool_:
        x = x.astype(_U64)
    return x.astype(object)


def lower_uint64(x):
    """Object lanes (values < 2^64) -> uint64 lanes."""
    if np.ndim(x) == 0:
        return _U64(int(x))
    if x.dtype == object:
        # astype() routes object ints through C long and overflows for
        # values >= 2^63; per-element uint64 conversion takes the full
        # unsigned range.
        return np.fromiter((int(v) for v in x), dtype=_U64, count=len(x))
    return x.astype(_U64)


def asarray_lane(x, n: int, dtype):
    """Materialize a lane as a length-``n`` 1-D array of ``dtype``
    (broadcasting scalars from constant-folded dataflow)."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return x if x.dtype == dtype else x.astype(dtype)
    out = np.empty(n, dtype=dtype)
    out[:] = x
    return out


def b_divu(a, b, m):
    """Unsigned division; division by zero yields all-ones (RISC-V)."""
    bz = b == 0
    return np.where(bz, m, a // np.where(bz, 1, b))


def b_modu(a, b, m):
    """Unsigned remainder; modulo zero yields the dividend (RISC-V)."""
    bz = b == 0
    return np.where(bz, a, a % np.where(bz, 1, b))


def _signed_parts(a, b, w, m):
    """(neg_a, neg_b, |a|, |b|) of w-bit two's-complement patterns."""
    sign = m ^ (m >> 1)                    # 1 << (w-1), matching flavor
    neg_a = (a & sign) != 0
    neg_b = (b & sign) != 0
    abs_a = np.where(neg_a, (0 - a) & m, a)
    abs_b = np.where(neg_b, (0 - b) & m, b)
    return neg_a, neg_b, abs_a, abs_b


def b_divs(a, b, w, m):
    """Signed division truncating toward zero; /0 yields all-ones."""
    neg_a, neg_b, abs_a, abs_b = _signed_parts(a, b, w, m)
    bz = b == 0
    q = abs_a // np.where(bz, 1, abs_b)
    qs = np.where(neg_a != neg_b, (0 - q) & m, q)
    return np.where(bz, m, qs)


def b_mods(a, b, w, m):
    """Signed remainder (sign of the dividend); %0 yields the dividend."""
    neg_a, neg_b, abs_a, abs_b = _signed_parts(a, b, w, m)
    bz = b == 0
    q = abs_a // np.where(bz, 1, abs_b)
    qs = np.where(neg_a != neg_b, (0 - q) & m, q)
    # a - trunc(a/b)*b in mod-2^w arithmetic equals the signed remainder's
    # bit pattern (operands and quotient are congruent to their signed
    # interpretations).
    return np.where(bz, a, (a - qs * b) & m)


def b_shrs(a, b, w, m):
    """Arithmetic shift right; counts clamp to width-1 (sign fill)."""
    sh = np.minimum(b, m & (w - 1)) if w > 1 else b * 0
    shifted = a >> sh
    sign = m ^ (m >> 1)
    fill = (m >> sh) ^ m
    return np.where((a & sign) != 0, shifted | fill, shifted)


def b_shl(a, b, w, m):
    """Logical shift left; counts >= width yield zero."""
    sh = np.minimum(b, m & (w - 1)) if w > 1 else b * 0
    return np.where(b < w, (a << sh) & m, a * 0)


def b_shru(a, b, w, m):
    """Logical shift right; counts >= width yield zero."""
    sh = np.minimum(b, m & (w - 1)) if w > 1 else b * 0
    return np.where(b < w, a >> sh, a * 0)


def b_rom_take(table, idx):
    """Bounds-checked table lookup; out-of-range indices read zero."""
    count = len(table)
    zero = 0 if table.dtype == object else table.dtype.type(0)
    if np.ndim(idx) == 0:
        i = int(idx)
        value = table[i] if i < count else zero
        if table.dtype == object:
            value = np.array(int(value), dtype=object)
        return value
    if count == 0:
        return np.full(len(idx), zero, dtype=table.dtype)
    if idx.dtype == object:
        size = len(idx)
        clipped = np.fromiter(
            (int(i) if i < count else 0 for i in idx),
            dtype=np.intp, count=size)
        oob = np.fromiter((i >= count for i in idx), dtype=bool,
                          count=size)
        return np.where(oob, zero, table[clipped])
    clipped = np.minimum(idx, idx.dtype.type(count - 1))
    return np.where(idx < count, table[clipped], zero)


# ---------------------------------------------------------------------------
# The simulator facade
# ---------------------------------------------------------------------------

class BatchedSimulator:
    """Lane-parallel simulation of one hw module.

    :meth:`run_batch` simulates one full stimulus trace per lane and
    returns per-lane output traces byte-identical to the scalar engines;
    :meth:`run_const` drives constant per-lane inputs for a fixed number
    of cycles (the cosim steady-state shape) and returns the final outputs
    per lane.  There is no single-lane ``step`` API: at one lane this
    engine is no faster than the interpreter, so one-lane callers use
    :class:`~repro.sim.rtl_sim.RTLSimulator`.
    """

    def __init__(self, module: HWModule):
        from repro.sim.compile import compile_module_batch

        self.module = module
        self._compiled = compile_module_batch(module)
        self._input_names = frozenset(p.name for p in module.inputs)
        self._input_masks = [mask(w) for w in self._compiled.input_widths]
        self._output_masks = [mask(w) for w in self._compiled.output_widths]
        self._n = 0
        self._regs: List[np.ndarray] = []
        self._last_outputs: Optional[Tuple] = None
        self.cycle = 0
        self.reset(1)

    # -- state -------------------------------------------------------------
    @property
    def register_count(self) -> int:
        return len(self._compiled.register_ops)

    @property
    def lanes(self) -> int:
        return self._n

    def reset(self, n: Optional[int] = None) -> None:
        """Zero all registers and size the batch to ``n`` lanes."""
        if n is not None:
            if n < 1:
                raise IRError(f"batch size must be >= 1, got {n}")
            self._n = n
        self._regs = [
            np.zeros(self._n, dtype=_LANE_DTYPE[kind])
            if kind != "o" else np.full(self._n, 0, dtype=object)
            for kind in self._compiled.register_kinds
        ]
        self._last_outputs = None
        self.cycle = 0

    def register_states(self) -> List[Tuple[int, ...]]:
        """Per-lane register tuples, matching RTLSimulator.register_state
        (ints, block order)."""
        columns = [
            asarray_lane(reg, self._n, _LANE_DTYPE[kind]).astype(_U64)
            .tolist() if kind == "b"
            else asarray_lane(reg, self._n, _LANE_DTYPE[kind]).tolist()
            for reg, kind in zip(self._regs, self._compiled.register_kinds)
        ]
        return [
            tuple(int(col[lane]) for col in columns)
            for lane in range(self._n)
        ]

    # -- batch API ---------------------------------------------------------
    def _build_inputs(self, vectors: Sequence[Dict[str, int]]) -> Tuple:
        """Per-port lane arrays for one cycle (one dict per lane)."""
        for vector in vectors:
            if not vector.keys() <= self._input_names:
                unknown = sorted(set(vector) - self._input_names)
                raise IRError(
                    f"unknown input port(s) {unknown} on module "
                    f"'{self.module.name}'"
                )
        compiled = self._compiled
        arrays = []
        for name, kind, m in zip(compiled.input_ports,
                                 compiled.input_kinds, self._input_masks):
            raw = [vector.get(name, 0) & m for vector in vectors]
            arrays.append(np.array(raw, dtype=_LANE_DTYPE[kind]))
        return tuple(arrays)

    def step_batch(self, vectors: Sequence[Dict[str, int]]) -> Tuple:
        """Advance one cycle on ``lanes`` input dicts; returns the raw
        per-output lane arrays (pre-edge values)."""
        if len(vectors) != self._n:
            raise IRError(
                f"expected {self._n} input vectors, got {len(vectors)}")
        arrays = self._build_inputs(vectors)
        with np.errstate(over="ignore"):
            outs = self._compiled.step_batch(arrays, self._regs, self._n)
        self.cycle += 1
        self._last_outputs = outs
        return outs

    def _materialize(self, outs: Tuple) -> List[List[int]]:
        """Raw output arrays -> per-output lists of Python ints."""
        columns = []
        for value, kind in zip(outs, self._compiled.output_kinds):
            arr = asarray_lane(value, self._n, _LANE_DTYPE[kind])
            if kind == "b":
                arr = arr.astype(_U64)
            columns.append([int(v) for v in arr.tolist()])
        return columns

    def outputs_batch(self) -> List[Dict[str, int]]:
        """Last sampled outputs as one dict per lane."""
        if self._last_outputs is None:
            raise IRError("no sampled outputs yet")
        names = self._compiled.output_names
        columns = self._materialize(self._last_outputs)
        return [
            {name: col[lane] for name, col in zip(names, columns)}
            for lane in range(self._n)
        ]

    def run_batch(
            self, stimuli: Sequence[List[Dict[str, int]]],
    ) -> List[List[Dict[str, int]]]:
        """Simulate one input trace per lane (all equal length) from
        reset; returns the per-lane output traces."""
        n = len(stimuli)
        if n == 0:
            return []
        cycles = len(stimuli[0])
        if any(len(trace) != cycles for trace in stimuli):
            raise IRError("all lanes must have equal-length stimuli")
        self.reset(n)
        traces: List[List[Dict[str, int]]] = [[] for _ in range(n)]
        names = self._compiled.output_names
        for c in range(cycles):
            outs = self.step_batch([trace[c] for trace in stimuli])
            columns = self._materialize(outs)
            for lane in range(n):
                traces[lane].append(
                    {name: col[lane]
                     for name, col in zip(names, columns)})
        return traces

    def prepare_trace(
            self, stimuli: Sequence[List[Dict[str, int]]]) -> List[Tuple]:
        """Marshal one input trace per lane into per-cycle lane-array
        tuples (the shape :meth:`run_prepared` consumes).  Splitting
        marshalling from evaluation lets throughput-sensitive callers —
        the engine benchmark, repeated sweeps over one stimulus set —
        pay the Python-dict cost once, outside the timed region."""
        if not stimuli:
            return []
        cycles = len(stimuli[0])
        if any(len(trace) != cycles for trace in stimuli):
            raise IRError("all lanes must have equal-length stimuli")
        return [
            self._build_inputs([trace[c] for trace in stimuli])
            for c in range(cycles)
        ]

    def run_prepared(self, arrays_by_cycle: Sequence[Tuple],
                     n: int) -> Optional[Tuple]:
        """Advance one cycle per prepared array tuple from reset, with no
        per-cycle marshalling or materialization; returns the raw final
        output arrays (or None for an empty trace).  Use
        :meth:`outputs_batch` afterwards for Python-int views."""
        self.reset(n)
        regs = self._regs
        step = self._compiled.step_batch
        outs = None
        with np.errstate(over="ignore"):
            for arrays in arrays_by_cycle:
                outs = step(arrays, regs, n)
        self.cycle += len(arrays_by_cycle)
        self._last_outputs = outs
        return outs

    def run_const(self, vectors: Sequence[Dict[str, int]],
                  cycles: int) -> List[Dict[str, int]]:
        """Drive constant per-lane inputs for ``cycles`` cycles from
        reset; returns the final-cycle outputs per lane.  This is the
        steady-state shape cosimulation needs: one lane per trial."""
        n = len(vectors)
        if n == 0:
            return []
        self.reset(n)
        arrays = self._build_inputs(vectors)
        regs = self._regs
        step = self._compiled.step_batch
        outs = None
        with np.errstate(over="ignore"):
            for _ in range(cycles):
                outs = step(arrays, regs, n)
        self.cycle += cycles
        self._last_outputs = outs
        return self.outputs_batch() if cycles else [
            {} for _ in range(n)]


__all__ = [
    "BatchedSimulator",
    "asarray_lane",
    "b_divs",
    "b_divu",
    "b_mods",
    "b_modu",
    "b_rom_take",
    "b_shl",
    "b_shrs",
    "b_shru",
    "bool_to_uint64",
    "lift_object",
    "lower_uint64",
]
