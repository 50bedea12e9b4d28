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
from typing import NamedTuple

import numpy as np

from .core import StateVector
from .errors import DomainError, ParameterError, PreconditionError, UnsupportedStateClassError
from .measures import AlphaMu, PureFeatures, f_alpha, renyi_entropy, require_power
from .wclass import wclass_from_state

#: Sentinel split index for the fully ordered ladder.
FULL = "full"

ORDERING_ATOL = 1e-12


def bound_values(lhs: float, terms, upper: bool) -> tuple[float, float, float, float]:
    """(lhs, rhs, margin, baseline) of ``lhs`` against weighted terms (weight, term).

    rhs is the weighted sum of the terms and baseline their unweighted sum,
    each added left to right.  ``margin`` is ``rhs - lhs`` for an upper bound
    on ``lhs`` and ``lhs - rhs`` for a lower bound, so that a nonnegative
    value means the inequality holds.
    """
    rhs = float(sum([w * t for w, t in terms]))
    baseline = float(sum([t for _, t in terms]))
    return lhs, rhs, rhs - lhs if upper else lhs - rhs, baseline


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
        lhs, rhs, margin, baseline = bound_values(lhs, terms, upper)
        return cls(
            kind=kind,
            lhs=lhs,
            rhs_terms=terms,
            rhs=rhs,
            margin=margin,
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
    full_cut = float(feats.cut_concurrence[0])
    return ordering_profile(psi.labels, feats.pair_concurrences[0], full_cut, relabel)


def ordering_profile(labels, pairs, full_cut: float, relabel: bool = True) -> OrderingProfile:
    """The profile of a state from its measured concurrences (see ``detect_ordering``).

    ``labels`` are the state's qubit labels, focus first; ``pairs`` are the
    pair concurrences with every other qubit in label order and ``full_cut``
    the focus-vs-rest concurrence.  The one-row case of ``Orderings.of``.
    """
    return Orderings.of(np.asarray(pairs, dtype=float)[None], relabel).profile(0, labels, full_cut)


class Orderings(NamedTuple):
    """The ordering decision for a stack of states, one row per state.

    ``order`` holds the partner indices (0 for the first partner) in party
    order and ``pairs`` the pair concurrences in that order, ``tails`` and
    the ``ge``/``le`` flags are the profile fields of ``OrderingProfile``,
    and ``split`` codes the ladder: n - 2 for FULL, m for a split at m, 0
    when no ladder applies.
    """

    order: np.ndarray
    pairs: np.ndarray
    tails: np.ndarray
    ge: np.ndarray
    le: np.ndarray
    split: np.ndarray

    @classmethod
    def of(cls, pairs: np.ndarray, relabel: bool = True) -> "Orderings":
        """Decide every row of a (B, n-1) stack of pair concurrences in label order.

        Tail i is sqrt(sum_{j>i} C_j^2) over the party-ordered pairs: W-class
        states meet the N-qubit CKW inequality with equality, and at three
        qubits the one tail is the last pair itself.  It is summed from the
        last partner on, in the order of a running sum, and rooted by the
        correctly rounded ``np.sqrt``.  The split is the largest m in
        [1, n-2] with every ">=" condition before m and every "<=" condition
        from m on; m = n - 2 asks every ">=" condition, the full ladder.
        """
        b, n = pairs.shape[0], pairs.shape[1] + 1
        if n < 3:
            raise ParameterError(f"ordering profiles need at least 3 qubits, got {n}")
        if relabel:
            order = np.argsort(-pairs, axis=1, kind="stable")
        else:
            order = np.tile(np.arange(n - 1), (b, 1))
        ordered = np.take_along_axis(pairs, order, axis=1)
        later = ordered[:, :0:-1]  # partners n-1 .. 2
        tails = np.sqrt(np.cumsum(later * later, axis=1))[:, ::-1]
        ge = ordered[:, :-1] >= tails - ORDERING_ATOL
        le = ordered[:, :-1] <= tails + ORDERING_ATOL
        # admissible[:, m - 1]: all of ge[:m] and all of le[m:], for m = 1 .. n-2
        le_from = np.logical_and.accumulate(le[:, ::-1], axis=1)[:, ::-1]
        admissible = np.logical_and.accumulate(ge, axis=1)
        admissible[:, :-1] &= le_from[:, 1:]
        last = np.argmax(admissible[:, ::-1], axis=1)
        split = np.where(admissible.any(axis=1), n - 2 - last, 0)
        return cls(order, ordered, tails, ge, le, split)

    def split_index(self, row: int) -> int | str | None:
        """The ladder of one row as ``OrderingProfile.split_index`` gives it."""
        split = int(self.split[row])
        return FULL if split == self.pairs.shape[1] - 1 else split or None

    def profile(self, row: int, labels, full_cut: float) -> OrderingProfile:
        """The ``OrderingProfile`` of one row; ``labels`` are the state's, focus first."""
        return OrderingProfile(
            focus=labels[0],
            party_order=tuple(labels[1 + k] for k in self.order[row].tolist()),
            pair_concurrences=tuple(self.pairs[row].tolist()),
            tail_concurrences=tuple(self.tails[row].tolist()),
            full_cut_concurrence=full_cut,
            satisfied_ge=tuple(self.ge[row].tolist()),
            satisfied_le=tuple(self.le[row].tolist()),
            split_index=self.split_index(row),
        )


def ckw_terms(feats: PureFeatures) -> list[tuple]:
    """Squared-concurrence monogamy (kind, lhs, terms), one per state of ``feats``."""
    return [
        ("ckw", cut**2, tuple((1.0, c**2) for c in pairs))
        for cut, pairs in zip(feats.cut_concurrence.tolist(), feats.pair_concurrences.tolist())
    ]


def ckw_check(psi: StateVector) -> BoundReport:
    """Squared-concurrence monogamy: C^2 first qubit vs rest >= sum of pair C^2."""
    ((kind, lhs, terms),) = ckw_terms(PureFeatures.of_state(psi))
    return BoundReport.from_terms(kind, lhs, terms, upper=False)


def lemma1_terms(feats: PureFeatures, x: float) -> list[tuple]:
    """Weighted concurrence-power (kind, lhs, terms) at power ``x``, one per state of ``feats``."""
    if x < 2:
        raise ParameterError(f"the weighted concurrence inequality needs x >= 2, got {x}")
    require_power(x, "x")
    if feats.pair_lambdas.shape[1] != 2:
        raise UnsupportedStateClassError(
            "both sides are computable only for pure three-qubit states"
        )
    weight = 2.0 ** (x / 2.0) - 1.0
    return [
        ("lemma1", cut**x, ((1.0, c1**x), (weight, c2**x)))
        for cut, (c2, c1) in zip(
            feats.cut_concurrence.tolist(), np.sort(feats.pair_concurrences, axis=-1).tolist()
        )
    ]


def lemma1_check(psi: StateVector, x: float) -> BoundReport:
    """Weighted concurrence-power inequality on a pure three-qubit state.

    Checks C_cut^x >= C_1^x + (2^(x/2) - 1) C_2^x with the partners ordered
    so that C_1 >= C_2, for powers x >= 2.
    """
    ((kind, lhs, terms),) = lemma1_terms(PureFeatures.of_state(psi), x)
    return BoundReport.from_terms(kind, lhs, terms, upper=False, mu=x)


def ladder_spectra(cut_probs: np.ndarray, pairs: np.ndarray, alpha: float) -> tuple[list, list]:
    """(cut entanglement, [f_alpha(C^2) per pair]) per state, at order ``alpha``.

    ``cut_probs`` (B, 2) are focus | rest Schmidt probabilities and
    ``pairs`` (B, n-1) pair concurrences in party order.  Every mu of one
    alpha reads the same values, so they are computed once per alpha.
    """
    return renyi_entropy(cut_probs, alpha).tolist(), f_alpha(pairs * pairs, alpha).tolist()


def ladder_terms(spectra: tuple[list, list], splits, params: AlphaMu, upper: bool) -> list[tuple]:
    """Ladder-weighted (kind, lhs, terms), one per state of ``ladder_spectra`` at ``params.alpha``.

    The left side is the cut entanglement raised to mu.  The terms are
    ``f_alpha`` at each squared pair concurrence, raised to mu, in party
    order, each with the weight of the state's ladder in ``splits`` (a
    ``split_index`` per state).  ``upper`` selects the polygamy upper bound
    on assisted entanglement (each pair concurrence equals the pair's
    concurrence of assistance on W-class states) instead of the monogamy
    lower bound.  Raises PreconditionError when a state satisfies no ladder
    hypothesis: the bound claims nothing there.
    """
    (params.require_polygamy if upper else params.require_monogamy)()
    mu = params.mu
    prefix, which = ("assist", "weighted upper bound") if upper else ("ladder", "weighted bound")
    ladders: dict = {}  # split -> (kind, weights)
    out = []
    for e, row, split in zip(*spectra, splits):
        if split is None:
            raise PreconditionError(f"ordering hypothesis unsatisfied; the {which} is not claimed")
        if split not in ladders:
            kind = f"{prefix}-full" if split == FULL else f"{prefix}-split-{split}"
            ladders[split] = kind, weight_ladder(1 + len(row), split, mu).tolist()
        kind, weights = ladders[split]
        out.append((kind, e**mu, tuple([(w, t**mu) for w, t in zip(weights, row)])))
    return out


def profile_report(psi: StateVector, profile: OrderingProfile, params: AlphaMu,
                   upper: bool) -> BoundReport:
    """The ladder report of one state and its profile (``theorem_bound``, ``theorem3_bound``)."""
    if profile.focus != psi.labels[0]:
        raise UnsupportedStateClassError("the profile's focus must be the state's first qubit")
    cut = PureFeatures.of_state(psi).cut_probs
    spectra = ladder_spectra(cut, np.array([profile.pair_concurrences]), params.alpha)
    ((kind, lhs, terms),) = ladder_terms(spectra, [profile.split_index], params, upper)
    return BoundReport.from_terms(kind, lhs, terms, upper, params.alpha, params.mu)


def theorem_bound(psi: StateVector, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted lower bound on the mu-th power of the one-vs-rest entanglement.

    The left side is the pure-cut entanglement raised to mu; the right side
    is the ladder-weighted sum of pairwise two-qubit entanglement powers
    (see ``ladder_terms``), each ``f_alpha`` at the squared pair concurrence
    that ``profile`` measured on ``psi``.
    """
    params.require_monogamy()
    return profile_report(psi, profile, params, upper=False)


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
