"""Fixtures shared by the test modules."""

import pytest

from itsketch import linalg


def _held_at_two(get, set_, which):
    if set_ is None:
        pytest.skip(f"{which} OpenBLAS not found")
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def blas_threads():
    """The getter of NumPy's OpenBLAS thread count, set to 2 for the test."""
    yield from _held_at_two(linalg._get_threads, linalg._set_threads, "NumPy's")


@pytest.fixture
def scipy_blas_threads():
    """The getter of SciPy's OpenBLAS thread count, set to 2 for the test."""
    yield from _held_at_two(linalg._scipy_get_threads, linalg._scipy_set_threads, "SciPy's")
