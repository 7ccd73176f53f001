"""SCAIE-V-managed custom register files (paper Section 3.1).

Longnail requests size/element-type/usage information via the configuration
file; SCAIE-V "automatically instantiates new storage elements that are
accessed in a similar manner as the general-purpose register file", including
hazard handling.  This module provides that storage model: it is used
structurally by the evaluation's area model and behaviorally by the core
timing simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.scaiev.config import IsaxConfig, RegisterRequest
from repro.scaiev.interfaces import address_width
from repro.utils.bits import to_unsigned


class CustomRegisterFile:
    """Storage for one requested custom register (file)."""

    def __init__(self, request: RegisterRequest,
                 init: Optional[List[int]] = None):
        self.name = request.name
        self.width = request.width
        self.elements = request.elements
        self.values: List[int] = [0] * request.elements
        if init:
            for i, value in enumerate(init[: request.elements]):
                self.values[i] = to_unsigned(value, self.width)

    @property
    def storage_bits(self) -> int:
        return self.width * self.elements

    @property
    def address_width(self) -> int:
        return address_width(self.elements)

    def read(self, index: int = 0) -> int:
        if not 0 <= index < self.elements:
            return 0
        return self.values[index]

    def write(self, value: int, index: int = 0) -> None:
        if 0 <= index < self.elements:
            self.values[index] = to_unsigned(value, self.width)

    def reset(self) -> None:
        self.values = [0] * self.elements

    def __repr__(self) -> str:
        return (f"<CustomRegisterFile {self.name}: {self.elements} x "
                f"{self.width} bits>")


def build_register_files(config: IsaxConfig) -> Dict[str, CustomRegisterFile]:
    """Instantiate storage for every register the ISAX requests."""
    return {req.name: CustomRegisterFile(req) for req in config.registers}
