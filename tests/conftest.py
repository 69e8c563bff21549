"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count ``np.linalg.eigh`` calls made during the test: one list entry
    per call, from the moment the fixture is set up."""
    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
