"""Tests of the benchmark's reference, which must hold without the program."""

import numpy as np
import pytest

from checks import Checker
from reference import Chain, ballistic_current, steady

FAULT_POINT = Chain((1.0, 1.1), 0.05, 0.1, 0.1, 0.5, 0.0, chi=0.3, sigma_z=0.2)


@pytest.mark.parametrize("n_sites", [2, 3, 5, 8, 13])
def test_atom_free_chain_carries_the_ballistic_current(n_sites):
    chain = Chain((1.3,) * n_sites, 0.04, 0.11, 0.07, 0.6, 0.05)
    ref = steady(chain)
    expected = ballistic_current(1.3, 0.04, 0.11, 0.07, 0.6, 0.05)
    assert ref.i_left == pytest.approx(expected, rel=1e-12)
    assert ref.i_right == pytest.approx(-expected, rel=1e-12)


def test_fault_point_current_is_exact_sector_mixture():
    ref = steady(FAULT_POINT)
    assert ref.i_left == pytest.approx(2.500e-3, rel=1e-12)
    assert ref.i_right == pytest.approx(-2.500e-3, rel=1e-12)
    plus = steady(Chain((1.0, 1.1), 0.05, 0.1, 0.1, 0.5, 0.0, chi=0.3, sigma_z=1.0))
    minus = steady(Chain((1.0, 1.1), 0.05, 0.1, 0.1, 0.5, 0.0, chi=0.3, sigma_z=-1.0))
    assert ref.i_right == pytest.approx(0.6 * plus.i_right + 0.4 * minus.i_right, rel=1e-12)


@pytest.mark.parametrize("sigma_z", [None, 1.0, -1.0, 0.3])
def test_equilibrium_gives_thermal_covariance_and_no_current(sigma_z):
    chain = Chain((1.0, 0.9, 1.2), 0.05, 0.08, 0.12, 0.4, 0.4, chi=0.7, sigma_z=sigma_z)
    ref = steady(chain)
    np.testing.assert_allclose(ref.covariance, 0.4 * np.eye(3), atol=1e-12)
    assert abs(ref.i_left) < 1e-14 and abs(ref.i_right) < 1e-14


@pytest.mark.parametrize("sigma_z", [None, 1.0, -1.0, -0.6])
def test_boundary_currents_balance_and_covariance_is_a_gram_matrix(sigma_z):
    chain = Chain((1.0, 1.15, 0.95, 1.05), 0.06, 0.09, 0.13, 0.8, 0.1, chi=1.4, sigma_z=sigma_z)
    ref = steady(chain)
    assert ref.i_left + ref.i_right == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(ref.covariance, ref.covariance.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(ref.covariance).min() > 0.0


def test_atom_free_heat_flows_from_hot_to_cold():
    assert steady(Chain((1.0, 0.8), 0.05, 0.1, 0.1, 0.7, 0.2)).i_left > 0
    assert steady(Chain((1.0, 0.8), 0.05, 0.1, 0.1, 0.2, 0.7)).i_left < 0


def test_checker_flags_the_fault_a_right_current():
    ref = steady(FAULT_POINT)
    row = {"i_left": ref.i_left, "i_right": -2.90e-3, "i_occupation": None, "i_coherence": None}
    chk = Checker()
    chk.close("row", "i_left", row["i_left"], ref.i_left, scale=ref.scale_left)
    chk.close("row", "i_right", row["i_right"], ref.i_right, scale=ref.scale_right)
    assert len(chk.problems) == 1 and "i_right" in chk.problems[0]
