"""Grids, window plans and dilated partitions answer one layout interface.

Each layout answers `count`, `item_name(k)`, `bounds` (None when dense),
`batch_shape(Z)`, `gather(Z)`, `window_order(field)` and
`combine(values)`, and `flowcore.layout_field` treats all three alike:
a reply in window order is combined, and an agreed field is taken as
Z's new values, failing with the item its window order names.
"""

import numpy as np
import pytest

from tiledflow.errors import ProviderError
from tiledflow.flowcore import GlobalOracleProvider, OracleConditioner, VectorFieldProvider, layout_field
from tiledflow.lattice import DenseLatent, Dims, init_sparse_noise
from tiledflow.patchwork import AgreedField, SparseWindowPlan, dilated_partition, make_patch_grid

from reference_copies import FixedReply

DIMS = Dims(2, 2, 4, 8, C=2, l=3)
MEMBERS = {"count", "item_name", "bounds", "batch_shape", "gather", "window_order", "combine"}
CASES = [("grid", 2), ("plan", 1), ("plan", 2), ("plan", 4), ("partition", None)]


def _case(kind, d, seed=0):
    """(Z, layout, oracle, conditions): the exact oracle over a random
    target, with the layout's own conditions.  Dense cells that are -0.0
    in Z and +0.0 in the target give -0.0 field values."""
    rng = np.random.default_rng(seed)
    conditioner = OracleConditioner()
    if kind == "plan":
        grid = make_patch_grid(DIMS, d, DIMS.M)
        cells = np.argwhere(np.ones(DIMS.grid_shape, dtype=bool))
        Z = init_sparse_noise(cells[rng.random(len(cells)) < 0.4], DIMS, seed)
        target = init_sparse_noise(cells[rng.random(len(cells)) < 0.4], DIMS, seed + 1)
        layout = SparseWindowPlan(grid, Z.coords)
        return Z, layout, GlobalOracleProvider(slat_target=target), conditioner.window_conditions(grid)
    values = rng.standard_normal((2,) + DIMS.dense_shape, dtype=np.float32)
    values[0][rng.random(DIMS.dense_shape) < 0.2] = -0.0
    values[1][values[0] == 0] = 0.0
    Z, oracle = DenseLatent(DIMS, values[0]), GlobalOracleProvider(ss_target=DenseLatent(DIMS, values[1]))
    if kind == "grid":
        layout = make_patch_grid(DIMS, d, DIMS.N)
        return Z, layout, oracle, conditioner.window_conditions(layout)
    layout = dilated_partition(DIMS, DIMS.N, seed=seed)
    return Z, layout, oracle, conditioner.dilated_conditions(layout)


@pytest.fixture(params=CASES, ids=lambda case: "-".join(map(str, case)))
def case(request):
    return _case(*request.param)


def test_every_layout_answers_the_same_members(case):
    Z, layout, _, conditions = case
    assert MEMBERS <= set(dir(layout))
    batch = layout.gather(Z)
    assert len(batch) == layout.count == len(conditions)
    assert batch.values.shape == layout.batch_shape(Z)
    if layout.bounds is None:
        assert isinstance(Z, DenseLatent)
    else:
        assert np.array_equal(batch.bounds, layout.bounds)
    names = [layout.item_name(k) for k in range(layout.count)]
    if hasattr(layout, "src_x"):
        assert names == [f"dilated sample {n}" for n in range(len(layout))]
    else:
        grid = getattr(layout, "grid", layout)
        assert names == [f"patch ({w.i}, {w.j})" for w in grid.windows()]


def test_gather_is_the_window_order_of_the_values(case):
    Z, layout, _, _ = case
    assert layout.gather(Z).values.tobytes() == layout.window_order(Z.values).tobytes()


def test_agreed_field_is_the_combine_of_the_default_reply(case):
    Z, layout, oracle, conditions = case
    t = 0.37
    t32 = float(np.float32(t))
    assert isinstance(oracle.evaluate_windows(Z, layout, conditions, t32), AgreedField)
    default = VectorFieldProvider.evaluate_windows(oracle, Z, layout, conditions, t32)
    field = layout_field(Z, layout, oracle, conditions, t)
    assert field.values.tobytes() == layout.combine(default).values.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_nan_in_an_agreed_field_names_its_window_order_item(case, seed):
    Z, layout, _, conditions = case
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(Z.values.shape).astype(np.float32)
    for _ in range(2):
        field[tuple(rng.integers(0, n) for n in field.shape)] = np.nan
    errors = []
    for reply in (AgreedField(field), layout.window_order(field)):
        with pytest.raises(ProviderError, match="non-finite values for") as info:
            layout_field(Z, layout, FixedReply(reply), conditions, 0.5)
        errors.append((str(info.value), info.value.item))
    assert errors[0] == errors[1]
    assert errors[0][1] is not None
