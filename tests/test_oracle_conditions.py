"""The oracle-condition decoder and the dense oracle sections, against a
copy of the per-item decoder and section code they replaced.

Every list of conditions must give the same stacked sections, or a
ProviderError naming the same item, with two deliberate exceptions in
which the reference answered and the new code names the item:

- a well-formed condition whose kind differs from the first item's:
  one batch holds one kind;
- an overshooting box, whose K exceeds the patch side but whose slice
  the lattice edge clips to the patch's shape: a box must lie inside the
  lattice.
"""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tiledflow.errors import ProviderError
from tiledflow.flowcore import (
    GlobalOracleProvider,
    _dense_sections,
    box_condition,
    read_oracle_conditions,
)
from tiledflow.lattice import DTYPE, DenseLatent, Dims, init_sparse_noise
from tiledflow.patchwork import SparseWindowPlan, make_patch_grid
from tiledflow.priors import ConditionEmbedding

from reference_copies import pillar_condition

# --- reference: the decoder and sections before the single decoder ----------

_COND_BOX = 1
_COND_PILLARS = 2


def decode_oracle_condition(cond):
    data = cond.data
    if len(data) < 1:
        raise ProviderError("empty oracle condition")
    kind = data[0]
    if kind == _COND_BOX:
        if len(data) != 13:
            raise ProviderError(f"bad box condition length {len(data)}")
        x0, y0, K = struct.unpack_from("<3I", data, 1)
        return ("box", int(x0), int(y0), int(K))
    if kind == _COND_PILLARS:
        if len(data) < 5:
            raise ProviderError("truncated pillar condition")
        (K,) = struct.unpack_from("<I", data, 1)
        if len(data) != 5 + 8 * K * K:
            raise ProviderError(f"bad pillar condition length {len(data)}")
        pairs = np.frombuffer(data, dtype="<u4", count=2 * K * K, offset=5).reshape(K, K, 2)
        return ("pillars", pairs[:, :, 0].astype(np.int64), pairs[:, :, 1].astype(np.int64))
    raise ProviderError(f"unknown oracle condition kind {kind}")


def _dense_targets(target, conditions, shape):
    if not conditions:
        return np.empty((0,) + tuple(shape), dtype=DTYPE)
    sections = _uniform_sections(target.data, conditions, tuple(shape))
    if sections is not None:
        return sections
    items = []
    for n, condition in enumerate(conditions):
        try:
            items.append(_dense_restriction(target, condition, shape))
        except Exception as exc:
            raise ProviderError(str(exc), item=n) from exc
    return np.stack(items)


def _uniform_sections(data, conditions, shape):
    size = len(conditions[0].data)
    if any(len(c.data) != size for c in conditions):
        return None
    n = len(conditions)
    rows = np.frombuffer(b"".join(c.data for c in conditions), dtype=np.uint8).reshape(n, size)
    K = shape[0]
    X, Y, H, C = data.shape
    if size == 13 and (rows[:, 0] == _COND_BOX).all():
        x0, y0, side = rows[:, 1:].copy().view("<u4").astype(np.int64).T
        inside = K <= H and (x0 + K <= X).all() and (y0 + K <= Y).all()
        if shape == (K, K, K, C) and (side == K).all() and inside:
            boxes = sliding_window_view(data[:, :, :K], (K, K), axis=(0, 1))
            return boxes.transpose(0, 1, 4, 5, 2, 3)[x0, y0]
    elif size == 5 + 8 * K * K and (rows[:, 0] == _COND_PILLARS).all():
        side = rows[:, 1:5].copy().view("<u4")
        pairs = rows[:, 5:].copy().view("<u4").reshape(n, K, K, 2).astype(np.int64)
        src_x, src_y = pairs[..., 0], pairs[..., 1]
        if shape == (K, K, H, C) and (side == K).all() and (src_x < X).all() and (src_y < Y).all():
            return data[src_x, src_y]
    return None


def _dense_restriction(target, condition, shape):
    kind = decode_oracle_condition(condition)
    data = target.data
    if kind[0] == "box":
        _, x0, y0, K = kind
        sub = data[x0 : x0 + K, y0 : y0 + K, :K]
    else:
        _, src_x, src_y = kind
        sub = data[src_x, src_y, :, :]
    if sub.shape != shape:
        raise ProviderError(f"oracle restriction {sub.shape} != patch {shape}")
    return sub


# --- generated conditions ----------------------------------------------------

K = 4


def answer(fn, *args):
    try:
        return fn(*args)
    except ProviderError as exc:
        return exc


@st.composite
def lattices(draw):
    X, Y = draw(st.sampled_from([K, 2 * K, 3 * K])), draw(st.sampled_from([K, 2 * K]))
    H, C = draw(st.sampled_from([K, K, K + 2])), draw(st.sampled_from([1, 2]))
    data = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((X, Y, H, C))
    return data.astype(DTYPE)


@st.composite
def conditions(draw, X, Y, kind=None):
    """One condition of `kind` (drawn when None): mostly a box or pillar
    map of the patch side inside the lattice; else one of another side,
    one reaching outside, or bytes that do not decode."""
    kind = kind or draw(st.sampled_from(["box", "pillars"]))
    fault = draw(st.sampled_from([None] * 12 + ["side", "outside", "bytes"]))
    if fault == "bytes":
        valid = box_condition(0, 0, K).data
        cut = [b"", valid[:12], valid + b"\0", b"\3" + valid[1:], b"\2\4\0", b"\2" + valid[1:]]
        return ConditionEmbedding(draw(st.sampled_from(cut)))
    if kind == "box":
        side = draw(st.sampled_from([K - 1, K + 1, 2 * K, 0])) if fault == "side" else K
        if fault == "outside":
            x0, y0 = draw(st.sampled_from([(X - K + 1, 0), (0, Y - K + 1), (X, Y), (2**32 - 1, 0)]))
        else:
            x0, y0 = draw(st.integers(0, X - K)), draw(st.integers(0, Y - K))
        return box_condition(x0, y0, side)
    side = draw(st.sampled_from([K - 1, 0])) if fault == "side" else K
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    src_x, src_y = rng.integers(0, X, (side, side)), rng.integers(0, Y, (side, side))
    if fault == "outside":
        src_x[-1, -1] = X
    return pillar_condition(src_x, src_y)


@st.composite
def cases(draw):
    """A lattice, a patch shape, and a list of conditions: all of one
    kind, or of kinds drawn item by item."""
    data = draw(lattices())
    X, Y, H, C = data.shape
    shape = draw(st.sampled_from([(K, K, K, C)] * 3 + [(K, K, H, C)] * 3 + [(K, K, K, 3 - C)]))
    kind = draw(st.sampled_from(["box", "pillars", None]))
    items = draw(st.lists(conditions(X, Y, kind), max_size=6))
    return data, items, shape


def overshoots(condition, shape):
    """For a condition the reference accepted: a box that is not of the
    patch side, so the lattice edge clipped it to the patch's shape."""
    kind = decode_oracle_condition(condition)
    return kind[0] == "box" and kind[3] != shape[0]


def is_other_kind(condition, first):
    try:
        return decode_oracle_condition(condition)[0] != decode_oracle_condition(first)[0]
    except ProviderError:
        return False


@settings(max_examples=300)
@given(cases())
def test_sections_match_the_reference(case):
    data, items, shape = case
    want = answer(_dense_targets, SimpleNamespace(data=data), items, shape)
    got = answer(_dense_sections, data, items, shape, {})
    if isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    assert isinstance(got, ProviderError), f"the reference failed on item {want.item}"
    first_bad = len(items) if isinstance(want, np.ndarray) else want.item
    assert got.item <= first_bad
    if got.item < first_bad:  # an item the reference accepted
        item = items[got.item]
        assert is_other_kind(item, items[0]) or overshoots(item, shape)


@given(conditions(2 * K, 3 * K))
def test_one_condition_reads_as_the_reference(condition):
    want = answer(decode_oracle_condition, condition)
    got = answer(read_oracle_conditions, [condition])
    if isinstance(want, ProviderError):
        assert isinstance(got, ProviderError) and got.item == 0 and str(got) == str(want)
    elif want[0] == "box":
        assert got["box"].tolist() == [list(want[1:])]
    else:
        assert np.array_equal(got["src"][0, ..., 0], want[1]) and np.array_equal(got["src"][0, ..., 1], want[2])


@pytest.mark.parametrize(
    "items,item",
    [
        ([box_condition(0, 0, K), ConditionEmbedding(b"")], 1),
        ([box_condition(0, 0, K), box_condition(4, 0, K), ConditionEmbedding(b"\7")], 2),
        ([box_condition(0, 0, K), pillar_condition(np.zeros((K, K), int), np.zeros((K, K), int))], 1),
        ([pillar_condition(np.zeros((K, K), int), np.zeros((K, K), int)), box_condition(0, 0, K)], 1),
        ([pillar_condition(np.zeros((2, 2), int), np.zeros((2, 2), int)),
          pillar_condition(np.zeros((K, K), int), np.zeros((K, K), int))], 1),
    ],
)
def test_decoder_names_the_first_bad_item(items, item):
    with pytest.raises(ProviderError) as err:
        read_oracle_conditions(items)
    assert err.value.item == item


def test_sparse_oracle_names_the_first_bad_item():
    dims = Dims(2, 2, 4, 8, l=3)
    grid = make_patch_grid(dims, 2, dims.M)
    rng = np.random.default_rng(3)
    target = init_sparse_noise(np.argwhere(rng.random(dims.grid_shape) < 0.3), dims, seed=1)
    batch = SparseWindowPlan(grid, target.coords).gather(target)
    good = [box_condition(w.x0, w.y0, w.K) for w in grid.windows()]
    provider = GlobalOracleProvider(slat_target=target)
    assert not provider.evaluate_batch(batch, good, 0.5).any()
    pillars = pillar_condition(np.zeros((8, 8), int), np.zeros((8, 8), int))
    # a box beyond the patch side (item 2) fails before a later malformed item
    cases = [({4: pillars}, 4), ({4: ConditionEmbedding(b"\1")}, 4), ({2: box_condition(0, 0, 16), 4: ConditionEmbedding(b"")}, 2)]
    for changes, item in cases:
        conditions = [changes.get(n, c) for n, c in enumerate(good)]
        with pytest.raises(ProviderError) as err:
            provider.evaluate_batch(batch, conditions, 0.5)
        assert err.value.item == item


@pytest.mark.parametrize("evaluate", ["batch", "item"])
@pytest.mark.parametrize("box", [(0, 0, 7), (0, 0, 4), (12, 0, 8), (0, 10, 8)])
def test_sparse_oracle_refuses_a_box_the_dense_oracle_refuses(evaluate, box):
    # as the dense oracle does: a box of another side than the patch's,
    # or reaching outside the grid, names its item
    dims = Dims(2, 2, 4, 8, l=3)
    grid = make_patch_grid(dims, 2, dims.M)
    rng = np.random.default_rng(4)
    target = init_sparse_noise(np.argwhere(rng.random(dims.grid_shape) < 0.3), dims, seed=1)
    batch = SparseWindowPlan(grid, target.coords).gather(target)
    conditions = [box_condition(w.x0, w.y0, w.K) for w in grid.windows()]
    conditions[1] = box_condition(*box)
    provider = GlobalOracleProvider(slat_target=target)
    with pytest.raises(ProviderError, match="does not fit") as err:
        if evaluate == "batch":
            provider.evaluate_batch(batch, conditions, 0.5)
        else:
            provider.evaluate(batch[1], conditions[1], 0.5)
    assert err.value.item == (1 if evaluate == "batch" else 0)
    dense = GlobalOracleProvider(ss_target=DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32)))
    dense_box = [box_condition(w.x0, w.y0, w.K) for w in make_patch_grid(dims, 2, dims.N).windows()]
    dense_box[1] = box_condition(box[0] // 2, box[1] // 2, box[2] // 2)
    dense_batch = make_patch_grid(dims, 2, dims.N).gather(dense.ss_target)
    with pytest.raises(ProviderError) as dense_err:
        dense.evaluate_batch(dense_batch, dense_box, 0.5)
    assert dense_err.value.item == 1
