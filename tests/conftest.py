"""Fixtures shared across the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count numpy.linalg.eigh calls; the list grows by one per call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
