"""Fixtures shared by the test modules."""

import pytest

from itsketch import linalg


@pytest.fixture
def blas_threads():
    """The getter of NumPy's OpenBLAS thread count, set to 2 for the test."""
    if linalg._set_threads is None:
        pytest.skip("NumPy's OpenBLAS not found")
    before = linalg._get_threads()
    linalg._set_threads(2)
    yield linalg._get_threads
    linalg._set_threads(before)
