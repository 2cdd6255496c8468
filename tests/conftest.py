"""Fixtures shared across the test modules."""

import os

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


@pytest.fixture
def qr_calls(monkeypatch):
    """Count numpy.linalg.qr calls; the list grows by one per call."""
    calls = []
    qr = np.linalg.qr

    def counting(matrix):
        calls.append(matrix.shape)
        return qr(matrix)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


@pytest.fixture
def make_read_only(monkeypatch):
    """Clear a file's write bits so that ``os.access`` reports it read-only.

    root may write any file whatever its mode, so under root ``os.access``
    is made to read the mode bits, as it does for any other user.
    """
    if os.geteuid() == 0:
        access = os.access

        def by_mode(path, mode, **kwargs):
            if mode & os.W_OK and not os.stat(path).st_mode & 0o222:
                return False
            return access(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", by_mode)
    return lambda path: os.chmod(path, 0o444)
