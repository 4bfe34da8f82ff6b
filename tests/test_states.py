import numpy as np
import pytest
from conftest import bits, rand_density_matrix, rand_pure_state
from reference import partial_trace, validate_density_matrix

from entdistill.qmat import I2, PHI_PLUS, projector, singlet_fraction
from entdistill.states import isotropic, pure_theta, twirl

# overlap of |psi(pi/16)> with the ebit, (1 + sin(pi/8))/2, frozen from a
# direct computation
F_PI_16 = 0.691341716183


def test_bell_phi_plus_is_the_ebit():
    psi = PHI_PLUS
    np.testing.assert_allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    assert singlet_fraction(projector(psi)) == pytest.approx(1.0, abs=1e-15)


def test_bell_marginals_maximally_mixed():
    rho = projector(PHI_PLUS)
    for keep in ([0], [1]):
        np.testing.assert_allclose(partial_trace(rho, keep), I2 / 2, atol=1e-15)


def test_theta_quarter_pi_is_the_ebit():
    overlap = PHI_PLUS.conj() @ pure_theta(np.pi / 4)
    assert overlap.real == pytest.approx(1.0, abs=1e-15)


def test_pure_theta_norm_and_schmidt_coefficients():
    theta = 0.3
    psi = pure_theta(theta)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    coeffs = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    np.testing.assert_allclose(sorted(coeffs), sorted([np.sin(theta), np.cos(theta)]), atol=1e-12)


def test_pure_theta_domain():
    for bad in (0.0, -0.1, np.pi / 4 + 1e-6, np.pi / 2):
        with pytest.raises(ValueError):
            pure_theta(bad)


def test_pure_theta_singlet_fraction():
    f = singlet_fraction(projector(pure_theta(np.pi / 16)))
    assert f == pytest.approx(F_PI_16, abs=1e-12)
    # same number from the overlap formula (sin t + cos t)^2 / 2
    t = np.pi / 16
    assert f == pytest.approx((np.sin(t) + np.cos(t)) ** 2 / 2, abs=1e-15)


def test_isotropic_extremes():
    np.testing.assert_allclose(isotropic(1.0), projector(PHI_PLUS), atol=1e-15)
    np.testing.assert_allclose(isotropic(0.25), np.eye(4) / 4, atol=1e-15)


def test_isotropic_spectrum():
    eigs = np.sort(np.linalg.eigvalsh(isotropic(0.7)))
    np.testing.assert_allclose(eigs, [0.1, 0.1, 0.1, 0.7], atol=1e-12)


@pytest.mark.parametrize("f", [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.77, 1.0])
def test_isotropic_is_valid_state_and_recovers_f(f):
    rho = isotropic(f)
    validate_density_matrix(rho)
    assert singlet_fraction(rho) == pytest.approx(f, abs=1e-12)
    # in an array, each value's slice is its float call bit for bit
    stack = isotropic(np.array([[0.3, f], [f, 0.9]]))
    assert stack.shape == (2, 2, 4, 4)
    assert np.array_equal(bits(stack[0, 1]), bits(rho)) and np.array_equal(bits(stack[1, 0]), bits(rho))


def test_isotropic_domain():
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            isotropic(bad)
    # an array names its first value outside, NaN included
    with pytest.raises(ValueError, match=r"^singlet fraction must lie in \[0, 1\], got -0\.01$"):
        isotropic(np.array([0.5, -0.01, 1.01]))
    with pytest.raises(ValueError, match=r"got nan$"):
        isotropic(np.array([[0.5, 1.0], [np.nan, 1.01]]))


def test_isotropic_entangled_iff_f_above_half():
    # PPT criterion: partial transpose has a negative eigenvalue iff F > 1/2
    def min_pt_eig(rho):
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        return np.linalg.eigvalsh(pt).min()

    for f in (0.0, 0.3, 0.49):
        assert min_pt_eig(isotropic(f)) > -1e-12
    for f in (0.51, 0.7, 1.0):
        assert min_pt_eig(isotropic(f)) < -1e-6


def test_twirl_fixed_points():
    for f in (0.2, 0.6, 0.95):
        np.testing.assert_allclose(twirl(isotropic(f)), isotropic(f), atol=1e-12)
    np.testing.assert_allclose(twirl(projector(PHI_PLUS)), projector(PHI_PLUS), atol=1e-12)


def test_twirl_of_schmidt_state():
    out = twirl(projector(pure_theta(np.pi / 16)))
    np.testing.assert_allclose(out, isotropic(F_PI_16), atol=1e-9)


def test_twirl_idempotent_and_fraction_preserving(rng):
    for _ in range(10):
        rho = rand_density_matrix(rng, 2)
        out = twirl(rho)
        np.testing.assert_allclose(twirl(out), out, atol=1e-12)
        assert singlet_fraction(out) == pytest.approx(singlet_fraction(rho), abs=1e-12)
        validate_density_matrix(out)
    psi = rand_pure_state(rng, 2)
    assert singlet_fraction(twirl(projector(psi))) == pytest.approx(
        singlet_fraction(projector(psi)), abs=1e-12)


def test_twirl_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        twirl(np.eye(8) / 8)
