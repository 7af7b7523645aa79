import numpy as np
import pytest

from semisobolev import waveguide


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_reference():
    """An empty straight-reference cache before and after the test."""
    waveguide.straight_reference.cache_clear()
    yield
    waveguide.straight_reference.cache_clear()


def report(criterion: int, ok: bool, detail: str) -> None:
    """One pass/fail line per acceptance criterion."""
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"
