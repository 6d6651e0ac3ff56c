"""The A-TREAT discrimination network for trigger condition testing.

:mod:`repro.network.gator` holds the paper's planned Gator network as a
stand-alone reference for experiment E8b; the engine does not use it."""

from .nodes import AlphaMemory, Node, PNode, VirtualAlphaMemory
from .treat import ATreatNetwork

__all__ = [
    "AlphaMemory",
    "Node",
    "PNode",
    "VirtualAlphaMemory",
    "ATreatNetwork",
]
