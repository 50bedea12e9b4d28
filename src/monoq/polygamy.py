"""Weighted polygamy upper bounds on assisted entanglement for W-class states.

The dual picture to the monogamy ladder: the mu-th power (0 <= mu <= 1) of
the one-vs-rest assisted entanglement is bounded above by a ladder-weighted
sum of pairwise assisted terms.  On W-class states every pair marginal has
concurrence equal to its concurrence of assistance, so the pairwise terms are
analytic and the hypotheses are decidable.
"""

from __future__ import annotations

from .core import DensityMatrix, StateVector, schmidt_probabilities
from .errors import SizeError, UnsupportedStateClassError
from .measures import AlphaMu, PureFeatures, renyi_entanglement_pure
from .monogamy import BoundReport, OrderingProfile, ladder_terms
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
    squared pair concurrences that ``profile`` measured, which equal the
    concurrences of assistance 2|a||b_i| on W-class marginals, and weighted
    by the ladder of the profile's split (see ``ladder_terms``).  The left
    side is the focus-vs-rest entanglement of ``w`` raised to mu.
    """
    params.require_polygamy()
    w = _as_wclass(w)
    if w.labels[0] != profile.focus:
        raise UnsupportedStateClassError(
            f"profile focus {profile.focus!r} must be the excitation qubit {w.labels[0]!r}"
        )
    probs = schmidt_probabilities(w.to_state_vector().amplitudes[None], (0,))
    ((kind, lhs, terms),) = ladder_terms(probs, [profile], params, upper=True)
    return BoundReport.from_terms(kind, lhs, terms, True, params.alpha, params.mu)


def coa_polygamy_check(psi: StateVector) -> BoundReport:
    """Squared-concurrence polygamy: C^2 first qubit vs rest <= sum of pair CoA^2.

    Holds for every pure multi-qubit state; the margin is rhs - lhs.
    """
    if psi.n_qubits > 6:
        raise SizeError(f"capped at 6 qubits, got {psi.n_qubits}")
    feats = PureFeatures.of_state(psi)
    lhs = float(feats.cut_concurrence[0]) ** 2
    terms = tuple((1.0, c**2) for c in feats.pair_coas[0].tolist())
    return BoundReport.from_terms("coa-polygamy", lhs, terms, upper=True)
