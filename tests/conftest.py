"""Fixtures shared by the test modules."""

import time
from dataclasses import dataclass

import pytest

from modcap.gradcheck import CaseResult, run_battery


@dataclass
class Battery:
    """One timed run of the whole gradient battery."""

    results: list[CaseResult]
    seconds: float

    def section(self, name: str) -> list[CaseResult]:
        return [r for r in self.results if r.section == name]


@pytest.fixture(scope="session")
def gradient_battery():
    """``gradient_battery(tol)`` runs the whole battery at ``tol`` once per
    session: acceptance criterion 1 and the section tests of
    test_gradcheck.py read the same run when they ask for the same
    tolerance."""
    runs = {}

    def battery(tol: float) -> Battery:
        if tol not in runs:
            started = time.perf_counter()
            results = run_battery(tol=tol)
            runs[tol] = Battery(results, time.perf_counter() - started)
        return runs[tol]

    return battery
