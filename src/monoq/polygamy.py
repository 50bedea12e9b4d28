"""Weighted polygamy upper bounds on assisted entanglement for W-class states.

The dual picture to the monogamy ladder: the mu-th power (0 <= mu <= 1) of
the one-vs-rest assisted entanglement is bounded above by a ladder-weighted
sum of pairwise assisted terms.  On W-class states every pair marginal has
concurrence equal to its concurrence of assistance, so the pairwise terms are
analytic and the hypotheses are decidable.
"""

from __future__ import annotations

from .core import DensityMatrix, StateVector, pair_marginals
from .errors import SizeError, UnsupportedStateClassError
from .measures import (
    AlphaMu,
    coa_two_qubit,
    concurrence_pure,
    f_alpha,
    renyi_entanglement_pure,
)
from .monogamy import BoundReport, OrderingProfile, ladder_report
from .wclass import WClassState, wclass_from_state

__all__ = [
    "wclass_pair_coa",
    "reoa_cut",
    "theorem3_bound",
    "coa_polygamy_check",
]


def _as_wclass(state) -> WClassState:
    if isinstance(state, WClassState):
        return state
    if isinstance(state, StateVector):
        return wclass_from_state(state)
    raise UnsupportedStateClassError(f"expected a W-class state, got {type(state).__name__}")


def wclass_pair_coa(w: WClassState, i: int) -> float:
    """Concurrence of assistance 2|a||b_i| of the i-th pair marginal (1-based).

    On W-class states this coincides with the plain concurrence of the same
    marginal.
    """
    return _as_wclass(w).pair_concurrence(i)


def reoa_cut(state, alpha: float) -> float:
    """Assisted entanglement across the focus-vs-rest cut of a pure state.

    For a pure global state the assisted value across the cut equals the
    plain entanglement of the cut.  Mixed inputs are rejected: no analytic
    route exists for them here.
    """
    if isinstance(state, DensityMatrix):
        raise UnsupportedStateClassError(
            "assisted entanglement of a mixed state has no analytic form here; "
            "pass the pure global state instead"
        )
    if isinstance(state, WClassState):
        state = state.to_state_vector()
    return renyi_entanglement_pure(state, {state.labels[0]}, alpha)


def theorem3_bound(w, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted upper bound on the mu-th power of assisted entanglement.

    The pairwise assisted terms are evaluated through ``f_alpha`` at the
    squared pair concurrence of assistance, exact on W-class marginals, and
    weighted by the ladder of the profile's split (see ``ladder_report``).
    """
    params.require_polygamy()
    w = _as_wclass(w)
    if w.labels[0] != profile.focus:
        raise UnsupportedStateClassError(
            f"profile focus {profile.focus!r} must be the excitation qubit {w.labels[0]!r}"
        )
    aligned = w.permuted(profile.party_order)
    alpha = params.alpha
    coas = [aligned.pair_concurrence(i) for i in range(1, aligned.n_parties)]
    pair_e = [f_alpha(c * c, alpha) for c in coas]
    lhs = reoa_cut(aligned, alpha) ** params.mu
    return ladder_report("assist", lhs, pair_e, profile, params, upper=True)


def coa_polygamy_check(psi: StateVector, focus: str = "A") -> BoundReport:
    """Squared-concurrence polygamy: C^2 one-vs-rest <= sum of pair CoA^2.

    Holds for every pure multi-qubit state; the margin is rhs - lhs.
    """
    if psi.n_qubits > 6:
        raise SizeError(f"capped at 6 qubits, got {psi.n_qubits}")
    lhs = concurrence_pure(psi, {focus}) ** 2
    terms = tuple((1.0, coa_two_qubit(r) ** 2) for r in pair_marginals(psi, focus).values())
    return BoundReport.from_terms("coa-polygamy", lhs, terms, upper=True)
