"""Shared enums for encodings and data-register modes."""

from __future__ import annotations

from enum import Enum

__all__ = ["Encoding", "DataMode"]


class Encoding(Enum):
    """How a logical qubit is carried through the router tree.

    Single-rail holds the bit directly in the g/e manifold.  Hybrid
    dual-rail entangles the register transmon with the routed phonon so a
    loss shows up as |f> on the register.  Standard dual-rail spreads the
    bit over two sequentially-routed rails with the routers initialized in
    vacuum, so a loss shows up as |00> on the rail pair.
    """

    SINGLE_RAIL = "single_rail"
    HYBRID_DUAL_RAIL = "hybrid_dual_rail"
    STANDARD_DUAL_RAIL_VACUUM = "standard_dual_rail_vacuum"

    @property
    def is_standard(self) -> bool:
        return self is Encoding.STANDARD_DUAL_RAIL_VACUUM

    @property
    def rails(self) -> tuple:
        """Rails a qubit can travel on: two only for standard dual-rail."""
        return (0, 1) if self.is_standard else (0,)


class DataMode(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"
