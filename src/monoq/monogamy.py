"""Weighted monogamy bounds and the machinery that decides when they apply.

The tightened lower bounds replace the plain sum of pairwise entanglement
powers with a geometric weight ladder (2^mu - 1)^k.  Which ladder applies is
decided by an ordering profile: pair concurrences compared against the
one-vs-rest concurrence of the marginal obtained by discarding the earlier
partners.  Bounds are evaluated, never assumed; every report carries the
margin and the gain over the unweighted baseline.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import StateVector, schmidt_probabilities
from .errors import DomainError, ParameterError, PreconditionError, UnsupportedStateClassError
from .measures import AlphaMu, PureFeatures, f_alpha, renyi_entropy, require_power
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

    ``focus`` is the first qubit's label; ``pair_concurrences[i]`` is the
    two-qubit concurrence with partner i + 1; ``tail_concurrences[i]`` is the
    one-vs-rest concurrence of the marginal that keeps the focus and
    partners i + 2, ..., N - 1.  Condition i holds in the ">=" sense when
    pair >= tail within 1e-12, dually for "<=".
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
    require_power(mu)
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


def detect_ordering(psi: StateVector, relabel: bool = True) -> OrderingProfile:
    """Measure the concurrence ordering of a pure state around its first qubit.

    Pair concurrences come from the two-qubit marginals.  Tail concurrences
    follow from them on three-qubit states (where each tail is itself a
    pair) and on W-class states of any size; any other state raises
    UnsupportedStateClassError.  With ``relabel`` the partners are assessed in
    order of decreasing pair concurrence, the labeling under which the
    hypotheses are most likely to hold.
    """
    if psi.n_qubits > 3:
        wclass_from_state(psi)
    feats = PureFeatures.of_state(psi)
    pairs, full_cut = feats.pair_concurrences[0].tolist(), float(feats.cut_concurrence[0])
    return ordering_profile(psi.labels, pairs, full_cut, relabel)


def ordering_profile(labels, pairs, full_cut: float, relabel: bool = True) -> OrderingProfile:
    """The profile of a state from its measured concurrences (see ``detect_ordering``).

    ``labels`` are the state's qubit labels, focus first; ``pairs`` are the
    pair concurrences with every other qubit in label order and ``full_cut``
    the focus-vs-rest concurrence.  Tail i is sqrt(sum_{j>i} C_j^2) over the
    party-ordered pairs: W-class states meet the N-qubit CKW inequality with
    equality, and at three qubits the one tail is the last pair itself.
    """
    n = len(labels)
    if n < 3:
        raise ParameterError(f"ordering profiles need at least 3 qubits, got {n}")
    partners = labels[1:]
    pair_of = dict(zip(partners, pairs))
    order = list(partners)
    if relabel:
        order.sort(key=lambda lab: -pair_of[lab])
    pair_vals = tuple(pair_of[lab] for lab in order)

    tails, rest = [], 0.0
    for c in reversed(pair_vals[1:]):
        rest += c * c
        tails.append(math.sqrt(rest))
    tails = tuple(reversed(tails))

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
        focus=labels[0],
        party_order=tuple(order),
        pair_concurrences=pair_vals,
        tail_concurrences=tails,
        full_cut_concurrence=full_cut,
        satisfied_ge=ge,
        satisfied_le=le,
        split_index=split,
    )


def ckw_reports(feats: PureFeatures) -> list[BoundReport]:
    """Squared-concurrence monogamy reports, one per state of ``feats``."""
    return [
        BoundReport.from_terms("ckw", cut**2, tuple((1.0, c**2) for c in pairs), upper=False)
        for cut, pairs in zip(feats.cut_concurrence.tolist(), feats.pair_concurrences.tolist())
    ]


def ckw_check(psi: StateVector) -> BoundReport:
    """Squared-concurrence monogamy: C^2 first qubit vs rest >= sum of pair C^2."""
    return ckw_reports(PureFeatures.of_state(psi))[0]


def lemma1_reports(feats: PureFeatures, x: float) -> list[BoundReport]:
    """Weighted concurrence-power reports at power ``x``, one per state of ``feats``."""
    if x < 2:
        raise ParameterError(f"the weighted concurrence inequality needs x >= 2, got {x}")
    require_power(x, "x")
    if feats.pair_lambdas.shape[1] != 2:
        raise UnsupportedStateClassError(
            "both sides are computable only for pure three-qubit states"
        )
    weight = 2.0 ** (x / 2.0) - 1.0
    return [
        BoundReport.from_terms(
            "lemma1", cut**x, ((1.0, c1**x), (weight, c2**x)), upper=False, mu=x
        )
        for cut, (c2, c1) in zip(
            feats.cut_concurrence.tolist(), np.sort(feats.pair_concurrences, axis=-1).tolist()
        )
    ]


def lemma1_check(psi: StateVector, x: float) -> BoundReport:
    """Weighted concurrence-power inequality on a pure three-qubit state.

    Checks C_cut^x >= C_1^x + (2^(x/2) - 1) C_2^x with the partners ordered
    so that C_1 >= C_2, for powers x >= 2.
    """
    return lemma1_reports(PureFeatures.of_state(psi), x)[0]


def ladder_reports(
    cut_probs: np.ndarray, profiles, params: AlphaMu, upper: bool
) -> list[BoundReport]:
    """Ladder-weighted bounds, one per (focus | rest Schmidt probabilities, profile).

    The left side is the cut entanglement raised to mu.  The right side is
    the ladder-weighted sum of ``f_alpha`` at each squared pair concurrence
    of the profile, raised to mu, in its party order; the unweighted sum is
    the baseline.  ``upper`` selects the polygamy upper bound on assisted
    entanglement (each pair concurrence equals the pair's concurrence of
    assistance on W-class states) instead of the monogamy lower bound.
    Raises PreconditionError when a profile satisfies no ladder hypothesis:
    the bound claims nothing there.
    """
    (params.require_polygamy if upper else params.require_monogamy)()
    alpha, mu = params.alpha, params.mu
    prefix, which = ("assist", "weighted upper bound") if upper else ("ladder", "weighted bound")
    lhs = [e**mu for e in renyi_entropy(cut_probs, alpha).tolist()]
    pair_c = np.array([p.pair_concurrences for p in profiles])
    pair_e = f_alpha(pair_c * pair_c, alpha).tolist()
    ladders: dict = {}
    reports = []
    for l, row, profile in zip(lhs, pair_e, profiles):
        if not profile.satisfied:
            raise PreconditionError(f"ordering hypothesis unsatisfied; the {which} is not claimed")
        split = profile.split_index
        if split not in ladders:
            ladders[split] = weight_ladder(profile.n_parties, split, mu).tolist()
        terms = tuple((w, e**mu) for w, e in zip(ladders[split], row))
        kind = f"{prefix}-full" if profile.is_full else f"{prefix}-split-{split}"
        reports.append(BoundReport.from_terms(kind, l, terms, upper, alpha, mu))
    return reports


def theorem_bound(psi: StateVector, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted lower bound on the mu-th power of the one-vs-rest entanglement.

    The left side is the pure-cut entanglement raised to mu; the right side
    is the ladder-weighted sum of pairwise two-qubit entanglement powers
    (see ``ladder_reports``), each ``f_alpha`` at the squared pair concurrence
    that ``profile`` measured on ``psi``.
    """
    params.require_monogamy()
    probs = schmidt_probabilities(psi.amplitudes[None], (0,))
    return ladder_reports(probs, [profile], params, upper=False)[0]


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
    require_power(x, "x")
    margin = (1.0 + t) ** x - 1.0 - (2.0**x - 1.0) * t**x
    regime = "lower" if x >= 1.0 else "upper"
    ok = margin >= -1e-12 if regime == "lower" else margin <= 1e-12
    return ScalarCheck(t=t, x=x, margin=float(margin), regime=regime, ok=ok)
