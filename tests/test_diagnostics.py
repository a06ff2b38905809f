import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from jumpdiff.diagnostics import record
from jumpdiff.lattice import Field, bv_norm, make_grid


@given(st.sampled_from([(1, 37), (2, 9)]), st.integers(0, 2**32 - 1))
def test_record_bv_equals_bv_norm_exactly(shape, seed):
    grid = make_grid(*shape, 2.0)
    field = Field(grid, np.random.default_rng(seed).normal(size=grid.n_cells))
    assert record(None, 0.0, field).bv == bv_norm(field)
