import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """Returns a function that calls fn() and gives the peak bytes traced during the call."""

    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
