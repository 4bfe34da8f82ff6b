"""Canonical two-qubit states: the ebit, isotropic mixtures, Schmidt-form pure states."""

from __future__ import annotations

import numpy as np

from .noise import _check_fraction
from .qmat import PHI_PLUS, projector, singlet_fraction


def _check_theta(theta: float) -> None:
    """Reject a Schmidt angle outside (0, pi/4]."""
    if not 0.0 < theta <= np.pi / 4:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")


def pure_theta(theta: float) -> np.ndarray:
    """Schmidt-form ket sin(theta)|00> + cos(theta)|11> for theta in (0, pi/4].

    theta = pi/4 is the (already maximally entangled) boundary.
    """
    _check_theta(theta)
    v = np.zeros(4, dtype=complex)
    v[0] = np.sin(theta)
    v[3] = np.cos(theta)
    return v


def isotropic(f: float | np.ndarray) -> np.ndarray:
    """Isotropic two-qubit state F|phi+><phi+| + (1-F)/3 (I - |phi+><phi+|).

    Its singlet fraction is F; it is entangled iff F > 1/2. An array of
    F gives a stack of states, one per value, each equal to its float
    call bit for bit.
    """
    f = _check_fraction(f, "singlet fraction", closed=True)
    if isinstance(f, np.ndarray):
        f = f[..., None, None]
    p = projector(PHI_PLUS)
    return f * p + (1.0 - f) / 3.0 * (np.eye(4, dtype=complex) - p)


def twirl(rho: np.ndarray) -> np.ndarray:
    """Project a two-qubit state onto the isotropic family.

    The symmetrization preserves the singlet fraction, so the result is
    simply the isotropic state with the same overlap. Idempotent.
    ``singlet_fraction`` rejects anything but a two-qubit state.
    """
    return isotropic(singlet_fraction(rho))
