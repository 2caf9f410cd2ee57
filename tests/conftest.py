"""Hypothesis profiles, registered here so that --hypothesis-profile finds them,
and the blas_threads fixture.

csv-wide: tests/test_csvout.py's float property at 100 times the example count
it runs with in tier-1 (hypothesis's default), for a wide check of the
formatter:

    PYTHONPATH=src python -m pytest -q tests/test_csvout.py --hypothesis-profile csv-wide
"""

import pytest
from hypothesis import settings

settings.register_profile("csv-wide", max_examples=100 * settings.default.max_examples)


class BlasThreads:
    """The thread counts of every OpenBLAS the process loaded, set and read together."""

    def __init__(self, handles):
        self.handles = handles

    def set(self, count):
        for set_threads, _ in self.handles:
            set_threads(count)

    def counts(self) -> set:
        return {get_threads() for _, get_threads in self.handles}


@pytest.fixture
def blas_threads():
    """BlasThreads over spectral's handles; each count is restored after the test."""
    from fracreg import spectral

    handles = spectral._openblas_handles()
    assert handles
    saved = [get_threads() for _, get_threads in handles]
    yield BlasThreads(handles)
    for (set_threads, _), count in zip(handles, saved):
        set_threads(count)
