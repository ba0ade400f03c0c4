"""Measurement substrate: simulated runtime accounting."""

from repro.metrics.runtime import OperatorCost, RuntimeLedger, StandardCosts

__all__ = [
    "OperatorCost",
    "RuntimeLedger",
    "StandardCosts",
]
