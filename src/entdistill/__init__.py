"""Purification of noisy qubit measurements and entanglement distillation.

The package has three layers:

- ``qmat`` and ``states``: dense complex linear algebra on small qubit
  registers and the canonical two-qubit states (ebit, isotropic family,
  Schmidt-form pure states).
- ``noise``, ``distill_mixed`` and ``distill_pure``: the analytic layer.
  Noisy computational-basis POVMs, the post-selection gadget that
  purifies them (with and without depolarizing CNOT noise), the two-way
  distillation round for isotropic states, and local filtering of pure
  states, all in closed form.
- ``oracle``: brute-force density-matrix simulations of the same
  protocols, used to verify every closed form independently.

``cli`` wraps the analytic and oracle layers in an ``entdistill``
command with table reproduction, parameter sweeps and verification. It
is not imported by ``import entdistill``; it loads on demand as
``entdistill.cli``.
"""

from . import distill_mixed, distill_pure, noise, oracle, qmat, states
from .distill_mixed import (
    DistillResult,
    ParityWeights,
    distill_map,
    lower_bound,
    lower_bound_limit,
    parity_weights,
    post_state_unnormalized,
)
from .distill_pure import (
    FilterOps,
    filter_ops,
    pure_filter_fidelity,
    pure_filter_fidelity_limit,
    pure_post_state_unnormalized,
)
from .noise import (
    PurifiedCoeffs,
    asymptotic_ratio,
    depolarized_cnot_apply,
    noisy_povm_element,
    purified_coeffs_gate_noisy,
    purified_coeffs_general,
    purified_coeffs_prefixes,
    purified_povm_element,
)
from .oracle import (
    EffectivePovm,
    oracle_distill_mixed,
    oracle_distill_pure,
    oracle_effective_povm,
)
from .qmat import expectation, singlet_fraction, tensor
from .states import isotropic, pure_theta, twirl

__version__ = "0.1.0"
