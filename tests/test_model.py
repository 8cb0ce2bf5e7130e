"""Model records, validation, serialization round trips."""

import numpy as np
import pytest

import resil
from resil.errors import ModelError
from resil.model import (
    IntegratorSystem,
    load_system,
    save_system,
    split,
    system_from_dict,
    system_to_dict,
)


def test_basic_construction(toy2):
    assert toy2.n == 1
    assert toy2.n_inputs == 2
    assert toy2.order == 1


def test_degenerate_bounds_rejected():
    with pytest.raises(ModelError, match="strictly below"):
        IntegratorSystem("bad", 1, np.array([[1.0]]), np.array([1.0]), np.array([1.0]))


def test_nonfinite_rejected():
    with pytest.raises(ModelError, match="non-finite"):
        IntegratorSystem("bad", 1, np.array([[np.inf]]), np.array([0.0]), np.array([1.0]))


def test_bad_order_rejected():
    with pytest.raises(ModelError, match="order"):
        IntegratorSystem("bad", 0, np.array([[1.0]]), np.array([0.0]), np.array([1.0]))


def test_bound_shape_mismatch_rejected():
    with pytest.raises(ModelError, match="bounds"):
        IntegratorSystem("bad", 1, np.eye(2), np.zeros(3), np.ones(3))


def test_split_views(toy2):
    sp = split(toy2, 1)
    assert sp.b.tolist() == [[1.0]]
    assert sp.c.tolist() == [[-1.0]]
    assert sp.u_min.tolist() == [-1.0]
    assert sp.u_max.tolist() == [3.0]
    assert sp.w_min.tolist() == [0.0]
    assert sp.w_max.tolist() == [1.0]


BLOCKS = ("b", "c", "u_min", "u_max", "w_min", "w_max")


@pytest.mark.parametrize("name", BLOCKS)
def test_split_blocks_are_read_only(toy3, name):
    sp = split(toy3, (3, 0))
    with pytest.raises(ValueError):
        getattr(sp, name)[0] = 7.0


def test_split_blocks_are_sliced_once(toy3):
    # Each block is its fancy-index slice of the system, memory order (B and C F-ordered)
    # included, made at construction: every read returns the same array.
    sp = split(toy3, (3, 0))
    kept, lost = list(sp.kept_columns), list(sp.lost_columns)
    slices = (toy3.b_bar[:, kept], toy3.b_bar[:, lost], toy3.u_min[kept], toy3.u_max[kept],
              toy3.u_min[lost], toy3.u_max[lost])
    for name, ref in zip(BLOCKS, slices):
        block = getattr(sp, name)
        assert block is getattr(sp, name)
        assert np.array_equal(block, ref) and block.strides == ref.strides


def test_split_equality_and_repr_leave_out_blocks(toy2):
    sp = split(toy2, 1)
    assert sp == split(toy2, 1) and sp != split(toy2, 0)
    assert repr(sp) == f"ActuatorSplit(base={toy2!r}, lost_columns=(1,), kept_columns=(0,))"


def test_split_toy1(toy1):
    sp = split(toy1, 2)
    assert sp.c[:, 0].tolist() == [1.0, 0.0]
    assert sp.w_min.tolist() == [-1.0]
    assert sp.w_max.tolist() == [1.0]


def test_split_out_of_range():
    sys = IntegratorSystem("s", 1, np.ones((1, 8)), np.zeros(8), np.ones(8))
    with pytest.raises(ModelError, match="out of range"):
        split(sys, 8)
    with pytest.raises(ModelError, match="duplicate"):
        split(sys, (1, 1))


def test_split_keeps_a_column(toy2):
    with pytest.raises(ModelError, match="at least one kept column"):
        split(toy2, (0, 1))


def test_split_reassembly_exact(toy3):
    # assemble_input puts row i of [B C] back in b_bar's column order.
    for lost in [(2, 3), (3, 0)]:
        sp = split(toy3, lost)
        for i, row in enumerate(toy3.b_bar):
            assert np.array_equal(sp.assemble_input(sp.b[i], sp.c[i]), row)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-8, 8, (4, 6))
    lo = -rng.random(6) - 1e-7
    sys = IntegratorSystem("rt", 3, b, lo, lo + rng.random(6) + 1e-6,
                           labels=tuple("abcdef"))
    path = tmp_path / "model.json"
    save_system(sys, str(path))
    back = load_system(str(path))
    assert np.array_equal(back.b_bar, sys.b_bar)
    assert np.array_equal(back.u_min, sys.u_min)
    assert np.array_equal(back.u_max, sys.u_max)
    assert back.order == sys.order
    assert back.labels == sys.labels


def test_dict_round_trip(toy1):
    back = system_from_dict(system_to_dict(toy1))
    assert np.array_equal(back.b_bar, toy1.b_bar)


def test_load_errors(tmp_path):
    with pytest.raises(ModelError, match="cannot read"):
        load_system(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelError, match="valid JSON"):
        load_system(str(bad))
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"name": "x"}')
    with pytest.raises(ModelError, match="missing required"):
        load_system(str(incomplete))


def test_immutability(toy1):
    with pytest.raises(ValueError):
        toy1.b_bar[0, 0] = 5.0


def test_package_all_resolves():
    # `from resil import *` binds every name resil.__all__ lists: no removed name stays.
    namespace = {}
    exec("from resil import *", namespace)
    assert set(resil.__all__) <= namespace.keys()
