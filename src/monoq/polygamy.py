"""Weighted polygamy upper bounds on assisted entanglement for W-class states.

The dual picture to the monogamy ladder: the mu-th power (0 <= mu <= 1) of
the one-vs-rest assisted entanglement is bounded above by a ladder-weighted
sum of pairwise assisted terms.  On W-class states every pair marginal has
concurrence equal to its concurrence of assistance, so the pairwise terms are
analytic and the hypotheses are decidable.
"""

from __future__ import annotations

from .core import StateVector
from .errors import SizeError
from .measures import AlphaMu, PureFeatures, cut_probabilities, renyi_entropy
from .monogamy import BoundReport, OrderingProfile, admit, profile_report, squared_terms


def reoa_cut(psi: StateVector, alpha: float) -> float:
    """Assisted entanglement across the focus-vs-rest cut of a pure state.

    It equals the plain entanglement of the cut, read like the left side of
    ``theorem3_bound``; mixed inputs, with no analytic route here, are rejected.
    """
    return renyi_entropy(cut_probabilities(psi)[0], alpha)


def theorem3_bound(psi: StateVector, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted upper bound on the mu-th power of assisted entanglement.

    ``psi`` must be W-class.  The pairwise assisted terms are ``f_alpha`` at
    the squared pair concurrences that ``profile`` measured, equal on W-class
    marginals to the concurrences of assistance, weighted by the profile's
    ladder (see ``ladder_terms``); the left side is the cut entanglement to mu.
    """
    return profile_report(psi, profile, params, "polygamy")


def coa_polygamy_check(psi: StateVector) -> BoundReport:
    """Squared-concurrence polygamy: C^2 first qubit vs rest <= sum of pair CoA^2.

    Holds for every pure multi-qubit state; the margin is rhs - lhs.  The
    columns are ``squared_terms`` of the pair concurrences of assistance;
    a state above 6 qubits is refused before its features are computed.
    """
    admit(psi)
    if psi.n_qubits > 6:
        raise SizeError(f"capped at 6 qubits, got {psi.n_qubits}")
    feats = PureFeatures.of_state(psi)
    return BoundReport.from_columns("coa-polygamy", squared_terms(feats.cut_probs, feats.pair_coas), upper=True)
