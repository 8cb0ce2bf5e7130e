"""Case-study builders: spacecraft and octocopter."""

import math

import numpy as np
import pytest

from resil import catalog, resilience
from resil.errors import ModelError
from resil.model import split


def test_printed_entries():
    sys = catalog.spacecraft_printed()
    assert sys.b_bar[0, 3] == pytest.approx(18314e-6)
    assert sys.b_bar[5, 0] == pytest.approx(-12.3e-6)
    assert sys.b_bar[0, 0] == 0.0
    assert sys.u_min.tolist() == [-1.0] * 14
    assert sys.u_max.tolist() == [1.0] * 14


def test_printed_full_rank():
    assert resilience.check_controllability(catalog.spacecraft_printed())


def test_appendix_sparsity_and_signs():
    printed = catalog.spacecraft_printed().b_bar
    recon = catalog.spacecraft_bbar(catalog.TABLE1_INITIAL).b_bar
    # Zero pattern must agree exactly where the printed entry is exactly zero.
    assert np.array_equal(printed == 0.0, np.abs(recon) < 1e-15)
    # Signs must agree where the printed entry is meaningfully nonzero.
    mask = np.abs(printed) > 0.1e-6
    assert np.array_equal(np.sign(printed[mask]), np.sign(recon[mask]))


def test_orbital_element_poles():
    with pytest.raises(ModelError, match="eccentricity"):
        catalog.OrbitalElements.from_degrees(7000, 1e-8, 20, 20, 20, 20)
    with pytest.raises(ModelError, match="inclination"):
        catalog.OrbitalElements.from_degrees(7000, 0.5, 0, 20, 20, 20)
    with pytest.raises(ModelError, match="perigee"):
        catalog.OrbitalElements.from_degrees(7000, 0.5, 20, 20, 90, 20)


def test_b5_vanishes_at_90_degrees():
    el = catalog.OrbitalElements.from_degrees(6678, 0.67, 90, 20, 20, 20)
    blocks = catalog._spacecraft_blocks(el)
    assert np.abs(blocks["B5"]).max() < 1e-15


def test_rotational_entries():
    p = catalog.OctocopterParams()
    sys = catalog.octocopter_rotational(p)
    assert sys.b_bar[0, 0] == pytest.approx(-9.0909e-5, rel=1e-3)
    assert np.all(sys.b_bar[2, 4:8] == 0.0)
    assert sys.b_bar[0, 6] == pytest.approx(p.b * p.l * p.k_thrust / p.i_x)
    assert sys.u_min.tolist() == [0.0] * 8
    assert sys.u_max.tolist() == [p.omega_max**2] * 8


def test_rotational_symmetry_groups():
    # The relabeling symmetry of the rotational matrix maps vertical
    # propellers to vertical and horizontal to horizontal; r_q is constant on
    # each of the two orbits.
    sys = catalog.octocopter_rotational()
    r = [resilience.quantitative_resilience(split(sys, j)).r_q for j in range(8)]
    for j in range(1, 4):
        assert r[j] == pytest.approx(r[0], rel=1e-9)
    for j in range(5, 8):
        assert r[j] == pytest.approx(r[4], rel=1e-9)


def test_translational_column5_direction():
    p = catalog.OctocopterParams()
    sys = catalog.octocopter_translational(p)
    col = sys.b_bar[:, 4]
    expected = np.array([1.0, 0.0, p.b])
    assert col == pytest.approx(expected / np.linalg.norm(expected) * np.linalg.norm(col))


def test_translational_bounds():
    p = catalog.OctocopterParams()
    sys = catalog.octocopter_translational(p)
    hover = p.m * p.g / 4.0
    assert sys.u_min[:4] == pytest.approx(np.full(4, -hover))
    assert sys.u_max[:4] == pytest.approx(np.full(4, p.max_thrust - hover))
    assert sys.u_min[4:] == pytest.approx(np.zeros(4))
    assert sys.u_max[4:] == pytest.approx(np.full(4, p.max_thrust))


def test_yaw_invariance(r_pair):
    base = [
        r_pair(split(catalog.octocopter_translational(psi=0.0), j))
        for j in range(4)
    ]
    for psi in (math.pi / 4.0, 1.3):
        sys = catalog.octocopter_translational(psi=psi)
        for j in range(4):
            r_p, r_m = r_pair(split(sys, j))
            assert r_p == pytest.approx(base[j][0], abs=1e-9)
            assert r_m == pytest.approx(base[j][1], abs=1e-9)


def test_params_validation():
    with pytest.raises(ModelError, match="positive"):
        catalog.OctocopterParams(tau=-1.0)


def test_resolve_names(tmp_path):
    assert catalog.resolve("spacecraft-printed").name == "spacecraft-printed"
    assert catalog.resolve("octocopter-rot").n_inputs == 8
    assert catalog.resolve("octocopter-trans:45").name == "octocopter-trans:45"
    el = tmp_path / "el.json"
    el.write_text('{"a": 6678, "e": 0.67, "i": 20, "argp": 20}')
    assert catalog.resolve(f"spacecraft-appendix:{el}").n == 6
    with pytest.raises(ModelError, match="unknown catalog"):
        catalog.resolve("nope")
