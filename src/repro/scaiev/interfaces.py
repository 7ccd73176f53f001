"""The SCAIE-V sub-interface catalogue (paper Table 1).

Each :class:`SubInterface` describes one operation an ISAX can request from
the host core: its operands, results, and usage rules.  SCAIE-V creates
individual sub-interfaces for each custom register on demand
(``Rd<NAME>`` / ``Wr<NAME>.addr`` / ``Wr<NAME>.data``); ``AW`` denotes the
register's address width and ``DW`` its data width.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple


def address_width(elements: int) -> int:
    """ceil(log2(num. elements)), minimum 1 (Table 1 caption), in exact
    integer arithmetic."""
    return max(1, (elements - 1).bit_length())


@dataclasses.dataclass(frozen=True)
class SubInterface:
    """One row of Table 1.

    ``operands``/``results`` are (name, width-expression) pairs, where the
    width is an int or one of the symbolic strings ``"AW"``/``"DW"``.
    ``per_stage`` marks the stall/flush family that may be instantiated per
    pipeline stage (the exception to the once-per-instruction rule).
    """

    name: str
    operands: Tuple = ()
    results: Tuple = ()
    description: str = ""
    per_stage: bool = False
    is_write: bool = False


def standard_interfaces(xlen: int = 32) -> Dict[str, SubInterface]:
    """The sub-interface operations for an ``xlen``-bit host core (Table 1)."""
    i32 = xlen
    table = [
        SubInterface("RdInstr", (), (("instr", i32),),
                     "Read the full instruction word."),
        SubInterface("RdRS1", (), (("data", i32),),
                     "Read the value of the GPR indicated by the rs1 "
                     "encoding field."),
        SubInterface("RdRS2", (), (("data", i32),),
                     "Read the value of the GPR indicated by the rs2 "
                     "encoding field."),
        SubInterface("RdCustReg", (("index", "AW"), ("pred", 1)),
                     (("data", "DW"),),
                     "Read the value of a custom register at the given "
                     "index."),
        SubInterface("RdPC", (), (("pc", i32),),
                     "Read the program counter."),
        SubInterface("RdMem", (("address", i32), ("pred", 1)),
                     (("data", i32),),
                     "Load a word from main memory."),
        SubInterface("WrRD", (("value", i32), ("pred", 1)), (),
                     "Write a value to the GPR indicated by the rd encoding "
                     "field.", is_write=True),
        SubInterface("WrCustReg.addr", (("index", "AW"),), (),
                     "Submit an index for a write to a custom register.",
                     is_write=True),
        SubInterface("WrCustReg.data", (("value", "DW"), ("pred", 1)), (),
                     "Write a value to a custom register at the previously "
                     "submitted index.", is_write=True),
        SubInterface("WrPC", (("newPC", i32), ("pred", 1)), (),
                     "Write the program counter.", is_write=True),
        SubInterface("WrMem", (("address", i32), ("value", i32), ("pred", 1)),
                     (),
                     "Store a word to the core's main memory.", is_write=True),
        SubInterface("RdIValid", (), (("valid", 1),),
                     "Query whether an instruction is currently executing in "
                     "stage s.", per_stage=True),
        SubInterface("RdStall", (), (("stall", 1),),
                     "Query whether stage s is stalled.", per_stage=True),
        SubInterface("RdFlush", (), (("flush", 1),),
                     "Query whether stage s is being flushed.", per_stage=True),
        SubInterface("WrStall", (("pred", 1),), (),
                     "Stall stage s.", per_stage=True, is_write=True),
        SubInterface("WrFlush", (("pred", 1),), (),
                     "Flush stages zero to s.", per_stage=True, is_write=True),
    ]
    return {iface.name: iface for iface in table}


def custom_register_interfaces(name: str, elements: int,
                               width: int) -> List[SubInterface]:
    """Sub-interfaces SCAIE-V creates on demand for one custom register
    (paper Section 3.1)."""
    aw = address_width(elements)
    return [
        SubInterface(f"Rd{name}", (("index", aw), ("pred", 1)),
                     (("data", width),),
                     f"Read custom register {name}."),
        SubInterface(f"Wr{name}.addr", (("index", aw),), (),
                     f"Submit write index for custom register {name}.",
                     is_write=True),
        SubInterface(f"Wr{name}.data", (("value", width), ("pred", 1)), (),
                     f"Write custom register {name}.", is_write=True),
    ]


def base_interface_of(name: str) -> str:
    """Map a concrete sub-interface name to its Table 1 family, e.g.
    ``WrCOUNT.data`` -> ``WrCustReg.data``."""
    std = standard_interfaces()
    if name in std:
        return name
    if name.startswith("Rd"):
        return "RdCustReg"
    if name.startswith("Wr") and name.endswith(".addr"):
        return "WrCustReg.addr"
    if name.startswith("Wr") and name.endswith(".data"):
        return "WrCustReg.data"
    if name.startswith("Wr"):
        return "WrCustReg.data"
    raise ValueError(f"cannot classify sub-interface {name!r}")
