"""Weighted polygamy upper bounds on assisted entanglement for W-class states.

The dual picture to the monogamy ladder: the mu-th power (0 <= mu <= 1) of
the one-vs-rest assisted entanglement is bounded above by a ladder-weighted
sum of pairwise assisted terms.  On W-class states every pair marginal has
concurrence equal to its concurrence of assistance, so the pairwise terms are
analytic and the hypotheses are decidable.
"""

from __future__ import annotations

import numpy as np

from .core import StateVector, require_state_vector
from .errors import SizeError
from .measures import AlphaMu, PureFeatures, renyi_entropy
from .monogamy import BoundReport, OrderingProfile, powers, profile_report
from .wclass import wclass_from_state

__all__ = [
    "reoa_cut",
    "theorem3_bound",
    "coa_polygamy_check",
]


def reoa_cut(psi: StateVector, alpha: float) -> float:
    """Assisted entanglement across the focus-vs-rest cut of a pure state.

    For a pure global state the assisted value across the cut equals the
    plain entanglement of the cut, read from the state's ``PureFeatures``
    like the left side of ``theorem3_bound``.  Mixed inputs are rejected: no
    analytic route exists for them here.
    """
    require_state_vector(psi)
    return renyi_entropy(PureFeatures.of_state(psi).cut_probs[0], alpha)


def theorem3_bound(psi: StateVector, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted upper bound on the mu-th power of assisted entanglement.

    ``psi`` must be W-class (``wclass_from_state`` raises otherwise).  The
    pairwise assisted terms are evaluated through ``f_alpha`` at the squared
    pair concurrences that ``profile`` measured, which equal the
    concurrences of assistance 2|a||b_i| on W-class marginals, and weighted
    by the ladder of the profile's split (see ``ladder_terms``).  The left
    side is the focus-vs-rest entanglement of ``psi`` raised to mu.
    """
    params.require_polygamy()
    wclass_from_state(psi)
    return profile_report(psi, profile, params, upper=True)


def coa_polygamy_check(psi: StateVector) -> BoundReport:
    """Squared-concurrence polygamy: C^2 first qubit vs rest <= sum of pair CoA^2.

    Holds for every pure multi-qubit state; the margin is rhs - lhs.
    """
    require_state_vector(psi)
    if psi.n_qubits > 6:
        raise SizeError(f"capped at 6 qubits, got {psi.n_qubits}")
    feats = PureFeatures.of_state(psi)
    terms = powers(feats.pair_coas, 2)[:, None]
    columns = powers(feats.cut_concurrence, 2)[:, None], np.ones_like(terms), terms
    return BoundReport.from_columns("coa-polygamy", columns, upper=True)
