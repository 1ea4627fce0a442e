import tracemalloc

import numpy as np
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


@pytest.fixture
def unslabbed():
    """Returns a function giving the rows of a game.Slabs at full width.

    Each block's rows are written on its columns, and every other entry is zero.
    """

    def rebuild(slabs, width):
        rows = np.zeros((slabs.shape[0], width), slabs.blocks[0].dtype)
        lo = 0
        for columns, block in zip(slabs.columns, slabs.blocks):
            rows[lo : lo + block.shape[0], slice(None) if columns is None else columns] = block
            lo += block.shape[0]
        return rows

    return rebuild
