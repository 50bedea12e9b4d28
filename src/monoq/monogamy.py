"""Weighted monogamy bounds and the machinery that decides when they apply.

The tightened lower bounds replace the plain sum of pairwise entanglement
powers with a geometric weight ladder (2^mu - 1)^k.  Which ladder applies is
decided by an ordering profile: pair concurrences compared against the
one-vs-rest concurrence of the marginal obtained by discarding the earlier
partners.  Bounds are evaluated, never assumed; every report carries the
margin and the gain over the unweighted baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import StateVector, pair_marginals
from .errors import (
    DomainError,
    InvalidSubsystemError,
    ParameterError,
    PreconditionError,
    UnsupportedStateClassError,
)
from .measures import (
    AlphaMu,
    concurrence_pure,
    f_alpha,
    renyi_entanglement_pure,
    wootters_concurrence,
)
from .wclass import wclass_from_state

#: Sentinel split index for the fully ordered ladder.
FULL = "full"

ORDERING_ATOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Evaluated inequality: left side, weighted terms, and margins.

    Covers lower bounds (monogamy, ``margin = lhs - rhs``) and upper bounds
    (polygamy, ``margin = rhs - lhs``) alike: ``margin`` is oriented so that
    a nonnegative value means the inequality holds, and ``tightness_gain``
    is how far the weighted side moved past the unweighted baseline in the
    claimed direction (``rhs - baseline`` for a lower bound, ``baseline -
    rhs`` for an upper bound).
    """

    kind: str
    lhs: float
    rhs_terms: tuple[tuple[float, float], ...]
    rhs: float
    margin: float
    baseline_rhs: float
    tightness_gain: float
    alpha: float | None = None
    mu: float | None = None

    @classmethod
    def from_terms(cls, kind, lhs, terms, upper: bool, alpha=None, mu=None) -> "BoundReport":
        """Report comparing ``lhs`` with the sum of weighted terms (weight, term).

        ``upper`` marks an upper bound on ``lhs``, otherwise a lower bound; the
        unweighted sum of the same terms is the baseline.
        """
        rhs = float(sum(w * t for w, t in terms))
        baseline = float(sum(t for _, t in terms))
        return cls(
            kind=kind,
            lhs=lhs,
            rhs_terms=terms,
            rhs=rhs,
            margin=rhs - lhs if upper else lhs - rhs,
            baseline_rhs=baseline,
            tightness_gain=baseline - rhs if upper else rhs - baseline,
            alpha=alpha,
            mu=mu,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "mu": self.mu,
            "lhs": self.lhs,
            "weights": [w for w, _ in self.rhs_terms],
            "terms": [t for _, t in self.rhs_terms],
            "rhs": self.rhs,
            "margin": self.margin,
            "baseline_rhs": self.baseline_rhs,
            "tightness_gain": self.tightness_gain,
        }


@dataclass(frozen=True)
class OrderingProfile:
    """Concurrence ordering data deciding which weight ladder applies.

    ``pair_concurrences[i]`` is the two-qubit concurrence with partner i + 1;
    ``tail_concurrences[i]`` is the one-vs-rest concurrence of the marginal
    that keeps the focus and partners i + 2, ..., N - 1.  Condition i holds
    in the ">=" sense when pair >= tail within 1e-12, dually for "<=".
    ``split_index`` is the largest admissible split, FULL when every ">="
    condition holds, or None when no ladder applies.
    """

    focus: str
    party_order: tuple[str, ...]
    pair_concurrences: tuple[float, ...]
    tail_concurrences: tuple[float, ...]
    full_cut_concurrence: float
    satisfied_ge: tuple[bool, ...]
    satisfied_le: tuple[bool, ...]
    split_index: int | str | None

    @property
    def n_parties(self) -> int:
        return 1 + len(self.party_order)

    @property
    def is_full(self) -> bool:
        return self.split_index == FULL

    @property
    def satisfied(self) -> bool:
        return self.split_index is not None

    def to_dict(self) -> dict:
        return asdict(self)


def weight_ladder(n_parties: int, split, mu: float) -> np.ndarray:
    """Weights multiplying the pairwise terms of the tightened bounds.

    For the fully ordered case the ladder is (2^mu - 1)^(i-1), i = 1..N-1.
    For a split at m (1 <= m <= N-3, N >= 4) the first m parties carry
    (2^mu - 1)^(i-1), the middle block carries (2^mu - 1)^(m+1), and the last
    party carries (2^mu - 1)^m.
    """
    if mu < 0:
        raise ParameterError(f"mu must be nonnegative, got {mu}")
    if n_parties < 3:
        raise ParameterError(f"need at least 3 parties, got {n_parties}")
    base = 2.0**mu - 1.0
    if split == FULL:
        return np.array([base**k for k in range(n_parties - 1)])
    m = int(split)
    if n_parties < 4 or not 1 <= m <= n_parties - 3:
        raise ParameterError(
            f"split {split!r} invalid for {n_parties} parties; need 1 <= m <= N-3 or FULL"
        )
    head = [base**k for k in range(m)]
    middle = [base ** (m + 1)] * (n_parties - 2 - m)
    return np.array(head + middle + [base**m])


def _pair_marginal_concurrences(psi: StateVector, focus: str) -> dict[str, float]:
    return {lab: wootters_concurrence(r) for lab, r in pair_marginals(psi, focus).items()}


def detect_ordering(psi: StateVector, focus: str = "A", relabel: bool = True) -> OrderingProfile:
    """Measure the concurrence ordering of a pure state around a focus qubit.

    Pair concurrences come from the two-qubit marginals.  Tail concurrences
    exist analytically only for three-qubit states (where each tail is itself
    a pair) and for W-class states of any size; anything else raises
    UnsupportedStateClassError.  With ``relabel`` the partners are assessed in
    order of decreasing pair concurrence, the labeling under which the
    hypotheses are most likely to hold.
    """
    if focus not in psi.labels:
        raise InvalidSubsystemError(f"focus {focus!r} not among labels {psi.labels!r}")
    n = psi.n_qubits
    if n < 3:
        raise ParameterError(f"ordering profiles need at least 3 qubits, got {n}")

    pairs = _pair_marginal_concurrences(psi, focus)
    order = [lab for lab in psi.labels if lab != focus]
    if relabel:
        order.sort(key=lambda lab: -pairs[lab])
    pair_vals = tuple(pairs[lab] for lab in order)
    full_cut = concurrence_pure(psi, {focus})

    if n == 3:
        # the only tail keeps a single partner, so it is a pair concurrence
        tails = (pair_vals[1],)
    else:
        try:
            w = wclass_from_state(psi)
        except UnsupportedStateClassError as exc:
            raise UnsupportedStateClassError(
                f"tail concurrences of a {n}-qubit state are only available for "
                f"W-class states: {exc}"
            ) from exc
        if w.labels[0] != focus:
            w = wclass_from_state(psi.permuted((focus,) + tuple(order)))
        w = w.permuted(tuple(order))
        tails = tuple(w.tail_concurrence(i) for i in range(1, n - 1))

    ge = tuple(pair_vals[i] >= tails[i] - ORDERING_ATOL for i in range(n - 2))
    le = tuple(pair_vals[i] <= tails[i] + ORDERING_ATOL for i in range(n - 2))

    split: int | str | None = None
    if all(ge):
        split = FULL
    else:
        for m in range(n - 3, 0, -1):
            if all(ge[:m]) and all(le[m:]):
                split = m
                break

    return OrderingProfile(
        focus=focus,
        party_order=tuple(order),
        pair_concurrences=pair_vals,
        tail_concurrences=tails,
        full_cut_concurrence=full_cut,
        satisfied_ge=ge,
        satisfied_le=le,
        split_index=split,
    )


def ckw_check(psi: StateVector, focus: str = "A") -> BoundReport:
    """Squared-concurrence monogamy: C^2 one-vs-rest >= sum of pair C^2."""
    pairs = _pair_marginal_concurrences(psi, focus)
    lhs = concurrence_pure(psi, {focus}) ** 2
    terms = tuple((1.0, c**2) for c in pairs.values())
    return BoundReport.from_terms("ckw", lhs, terms, upper=False)


def lemma1_check(psi: StateVector, x: float, focus: str = "A") -> BoundReport:
    """Weighted concurrence-power inequality on a pure three-qubit state.

    Checks C_cut^x >= C_1^x + (2^(x/2) - 1) C_2^x with the partners ordered
    so that C_1 >= C_2, for powers x >= 2.
    """
    if x < 2:
        raise ParameterError(f"the weighted concurrence inequality needs x >= 2, got {x}")
    if psi.n_qubits != 3:
        raise UnsupportedStateClassError(
            "both sides are computable only for pure three-qubit states"
        )
    pairs = sorted(_pair_marginal_concurrences(psi, focus).values(), reverse=True)
    lhs = concurrence_pure(psi, {focus}) ** x
    weight = 2.0 ** (x / 2.0) - 1.0
    terms = ((1.0, pairs[0] ** x), (weight, pairs[1] ** x))
    return BoundReport.from_terms("lemma1", lhs, terms, upper=False, mu=x)


def ladder_report(
    prefix: str, lhs: float, pair_e, profile: OrderingProfile, params: AlphaMu, upper: bool
) -> BoundReport:
    """Ladder-weighted bound on ``lhs`` from pairwise entanglements ``pair_e``.

    The right side is the ladder-weighted sum of ``pair_e`` raised to mu and
    the unweighted sum is the baseline.  ``upper`` selects an upper bound
    (polygamy) instead of a lower bound (monogamy).  Raises
    PreconditionError when the profile satisfies no ladder hypothesis: the
    bound claims nothing there.
    """
    if not profile.satisfied:
        which = "weighted upper bound" if upper else "weighted bound"
        raise PreconditionError(f"ordering hypothesis unsatisfied; the {which} is not claimed")
    mu = params.mu
    weights = weight_ladder(profile.n_parties, profile.split_index, mu)
    terms = tuple((float(w), float(e**mu)) for w, e in zip(weights, pair_e))
    kind = f"{prefix}-full" if profile.is_full else f"{prefix}-split-{profile.split_index}"
    return BoundReport.from_terms(kind, lhs, terms, upper, params.alpha, mu)


def theorem_bound(psi: StateVector, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted lower bound on the mu-th power of the one-vs-rest entanglement.

    The left side is the pure-cut entanglement raised to mu; the right side
    is the ladder-weighted sum of pairwise two-qubit entanglement powers
    (see ``ladder_report``), each ``f_alpha`` at the squared pair concurrence
    that ``profile`` measured on ``psi``.
    """
    params.require_monogamy()
    alpha = params.alpha
    pair_e = [f_alpha(c * c, alpha) for c in profile.pair_concurrences]
    lhs = renyi_entanglement_pure(psi, {profile.focus}, alpha) ** params.mu
    return ladder_report("ladder", lhs, pair_e, profile, params, upper=False)


@dataclass(frozen=True)
class ScalarCheck:
    """Margin of the scalar weight inequality and the regime it was tested in."""

    t: float
    x: float
    margin: float
    regime: str  # "lower" for x >= 1, "upper" for x <= 1
    ok: bool


def scalar_weight_inequality(t: float, x: float) -> ScalarCheck:
    """Margin (1+t)^x - 1 - (2^x - 1) t^x of the scalar ladder inequality.

    Nonnegative for x >= 1, nonpositive for 0 <= x <= 1, on t in [0, 1].
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if x < 0:
        raise ParameterError(f"x must be nonnegative, got {x}")
    margin = (1.0 + t) ** x - 1.0 - (2.0**x - 1.0) * t**x
    regime = "lower" if x >= 1.0 else "upper"
    ok = margin >= -1e-12 if regime == "lower" else margin <= 1e-12
    return ScalarCheck(t=t, x=x, margin=float(margin), regime=regime, ok=ok)
