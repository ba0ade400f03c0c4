"""Checker registry: one plugin per enforced invariant."""

from __future__ import annotations

from repro.analysis.checkers.base import Checker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.ledger import LedgerAccountingChecker
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.checkers.persistence import PersistenceHygieneChecker
from repro.analysis.checkers.observability import ObservabilityHygieneChecker


def all_checkers() -> list[Checker]:
    """Fresh instances of every shipped checker, in rule order."""
    return [
        DeterminismChecker(),
        LedgerAccountingChecker(),
        LockDisciplineChecker(),
        PersistenceHygieneChecker(),
        ObservabilityHygieneChecker(),
    ]


__all__ = [
    "Checker",
    "DeterminismChecker",
    "LedgerAccountingChecker",
    "LockDisciplineChecker",
    "ObservabilityHygieneChecker",
    "PersistenceHygieneChecker",
    "all_checkers",
]
