import numpy as np
import pytest

from semisobolev import models


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_reference(monkeypatch):
    """An empty memo of model constants and straight references, and a
    zero miss count, for the test; the session's memo is back after it."""
    monkeypatch.setattr(models, "_cache", {})
    monkeypatch.setattr(models, "_unconverged", 0)


def report(criterion: int, ok: bool, detail: str) -> None:
    """One pass/fail line per acceptance criterion."""
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"
