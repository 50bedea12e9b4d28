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
from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .core import StateVector, is_int, is_real, require_state_vector
from .errors import DomainError, ParameterError, PreconditionError, UnsupportedStateClassError
from .measures import AlphaMu, PureFeatures, cut_concurrences, cut_probabilities, f_alpha, renyi_entropy, require_power
from .wclass import require_wclass

#: Sentinel split index for the fully ordered ladder.
FULL = "full"

ORDERING_ATOL = 1e-12


def admit(psi, mode: str | None = None) -> None:
    """Refuse anything but a ``StateVector``, then a state the rule of ``mode`` refuses (see ``Bound``)."""
    require_state_vector(psi)
    if mode is not None and BOUNDS[mode].needs_wclass(psi.n_qubits):
        require_wclass(psi)


def enter(psi, mode: str | None = None) -> PureFeatures:
    """The features of a pure state from outside, checked for ``mode``: the one door of such states.

    The public bounds, ``detect_ordering``, state files and states passed to
    ``harness.replay_record`` enter here; ``admit`` checks them first.
    """
    admit(psi, mode)
    return PureFeatures.of_state(psi)


def _require_partners(n_qubits: int) -> None:
    """Refuse fewer than three qubits, where no ordering profile exists."""
    if n_qubits < 3:
        raise ParameterError(f"ordering profiles need at least 3 qubits, got {n_qubits}")


def _require_three(n_qubits: int) -> None:
    """Refuse all but three qubits, where both sides of the lemma1 inequality are computable."""
    if n_qubits != 3:
        raise UnsupportedStateClassError("both sides are computable only for pure three-qubit states")


def ladder_base(x: float) -> float:
    """2^x - 1: the ratio of the weight ladders, and the scalar inequality's coefficient."""
    return 2.0**x - 1.0


def bound_values(lhs: np.ndarray, weights: np.ndarray, terms: np.ndarray,
                 upper: bool) -> np.ndarray:
    """(lhs, rhs, margin, baseline) of every (state, cell), shape (B, C, 4).

    ``lhs`` is (B, C); ``weights`` and ``terms`` are (B, C, k), the weighted
    terms of each cell's right side.  rhs is ``0.0 + W[..., 0] * T[..., 0]``,
    then ``+ W[..., j] * T[..., j]`` for j = 1 .. k-1, left to right, and
    baseline is the unweighted terms summed the same way.  IEEE ``*`` and
    ``+`` give the same bits on arrays as on Python floats, so the values do
    not depend on the Python version; the builtin ``sum`` of floats
    compensates from Python 3.12 on.  ``margin`` is ``rhs - lhs`` for an
    upper bound on ``lhs`` and ``lhs - rhs`` for a lower bound, so that a
    nonnegative value means the inequality holds.
    """
    block = np.zeros(lhs.shape + (4,))
    block[..., 0] = lhs
    rhs, baseline = block[..., 1], block[..., 3]
    for j in range(terms.shape[-1]):
        rhs += weights[..., j] * terms[..., j]
        baseline += terms[..., j]
    block[..., 2] = rhs - lhs if upper else lhs - rhs
    return block


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
    def from_columns(cls, kind, columns, upper: bool, alpha=None, mu=None) -> "BoundReport":
        """Report of the one state and cell of ``columns``, (lhs, weights, terms) of a batch of one.

        ``upper`` marks an upper bound on ``lhs``, otherwise a lower bound; the
        unweighted sum of the same terms is the baseline.  The values come
        from ``bound_values``, as a campaign's do.
        """
        lhs, weights, terms = columns
        (((lhs, rhs, margin, baseline),),) = bound_values(lhs, weights, terms, upper).tolist()
        return cls(
            kind=kind,
            lhs=lhs,
            rhs_terms=tuple(zip(weights[0, 0].tolist(), terms[0, 0].tolist())),
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
    party carries (2^mu - 1)^m.  A party count or a split that is not an
    integer (a ``bool`` is not one), and a ladder whose largest weight is
    not a finite float, raise ParameterError.
    """
    require_power(mu)
    if not (is_int(n_parties) and (split == FULL or is_int(split))):
        raise ParameterError(f"need an integer party count and an integer split or FULL, got {n_parties!r}, {split!r}")
    if n_parties < 3:
        raise ParameterError(f"need at least 3 parties, got {n_parties}")
    if split != FULL and not 1 <= split <= n_parties - 3:
        raise ParameterError(
            f"split {split!r} invalid for {n_parties} parties; need 1 <= m <= N-3 or FULL"
        )
    try:
        return _ladder_weights(n_parties, n_parties - 2 if split == FULL else split, ladder_base(mu))
    except OverflowError:
        raise ParameterError(f"the weights of {n_parties} parties at mu {mu} overflow") from None


def _ladder_weights(n_parties: int, code: int, base: float) -> np.ndarray:
    """The ladder of ratio ``base`` for an ``Orderings.split`` code in [1, n-2], unchecked.

    ``weight_ladder`` at base ``ladder_base(mu)``; the split formula at
    m = n - 2 is the full ladder (no middle block).
    """
    head = [base**k for k in range(code)]
    width = n_parties - 2 - code  # the middle block's, 0 on the full ladder
    middle = [base ** (code + 1)] * width if width else []  # its power may overflow when unused
    return np.array(head + middle + [base**code])


def detect_ordering(psi: StateVector, relabel: bool = True) -> OrderingProfile:
    """Measure the concurrence ordering of a pure state around its first qubit.

    Pair concurrences come from the two-qubit marginals.  Tail concurrences
    follow from them on three-qubit states (where each tail is itself a
    pair) and on W-class states of any size; any other state raises
    UnsupportedStateClassError.  With ``relabel`` the partners are assessed in
    order of decreasing pair concurrence, the labeling under which the
    hypotheses are most likely to hold.
    """
    feats = enter(psi, "monogamy")
    full_cut = float(feats.cut_concurrence[0])
    return Orderings.of(BOUNDS["monogamy"].ordered_by(feats), relabel).profile(0, psi.labels, full_cut)


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
        _require_partners(n)
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


def powers(values: np.ndarray, x: float) -> np.ndarray:
    """``v ** x`` for every entry, by the C ``pow`` behind Python's ``**``, one value at a time.

    ``np.power`` rounds differently from that ``pow`` on a few percent of
    inputs (and ``x ** 2`` from ``x * x``), so every power of a bound is
    taken here, the same on every route.  ``math.pow`` calls the same ``pow``
    as ``**`` without its per-value operator dispatch.
    """
    flat = values.ravel().tolist()
    return np.fromiter(map(math.pow, flat, repeat(x)), float, len(flat)).reshape(values.shape)


def _cell_report(mode: str, psi: StateVector, alphas, mus) -> BoundReport:
    """The report of a mode without an ordering on one state from outside, in its one cell of the grids.

    Checks the state's type, then the cell (the entry's ``cells``), then the
    mode's state rule (``enter``).
    """
    require_state_vector(psi)
    bound = BOUNDS[mode]
    cells = bound.cells(alphas, mus)
    feats = enter(psi, mode)
    columns = bound.columns(feats.cut_probs, feats.pair_concurrences, None, cells)
    return BoundReport.from_columns(bound.kind, columns, bound.upper, *cells[0])


def squared_terms(cut_probs: np.ndarray, pairs: np.ndarray, _splits=None, _cells=None) -> tuple:
    """Squared-concurrence columns (lhs, weights, terms) of a stack of states, one cell.

    lhs (B, 1) is the squared concurrence of the focus | rest cut whose
    Schmidt probabilities are ``cut_probs`` (B, 2), and the terms (B, 1,
    n-1) the squared pair values ``pairs`` (B, n-1), each of weight 1: the
    ``ckw`` columns given the pair concurrences, ``coa_polygamy_check``'s
    given the concurrences of assistance.
    """
    terms = powers(pairs, 2)[:, None]
    return powers(cut_concurrences(cut_probs), 2)[:, None], np.ones_like(terms), terms


def ckw_check(psi: StateVector) -> BoundReport:
    """Squared-concurrence monogamy: C^2 first qubit vs rest >= sum of pair C^2."""
    return _cell_report("ckw", psi, (None,), (None,))


def require_lemma1_power(x: float) -> float:
    """``x``, refused unless it is a power (``require_power``) of the weighted concurrence inequality: x >= 2."""
    require_power(x, "x")
    if x < 2:
        raise ParameterError(f"the weighted concurrence inequality needs x >= 2, got {x}")
    return x


def lemma1_check(psi: StateVector, x: float) -> BoundReport:
    """Weighted concurrence-power inequality on a pure three-qubit state.

    Checks C_cut^x >= C_1^x + (2^(x/2) - 1) C_2^x with the partners ordered
    so that C_1 >= C_2, for powers x >= 2.
    """
    return _cell_report("lemma1", psi, (None,), (x,))


def ladder_terms(cut_probs: np.ndarray, pairs: np.ndarray, splits, cells, *, value: Callable, base: Callable) -> tuple:
    """Weighted power-ladder columns (lhs, weights, terms), one cell per (alpha, mu) of ``cells``.

    The one function that builds a weighted power ladder: the columns of
    every ladder entry of ``BOUNDS``, which binds ``value`` and ``base``, and
    the one route to their values.  Campaigns and replay
    (``harness._evaluate``), ``ladder_report``, ``_cell_report`` and
    ``harness.figure_rows`` all call it through its entry.  ``cut_probs``
    (B, 2) are the states' focus | rest Schmidt probabilities; ``pairs``
    (B, n-1) their pair concurrences, in party order (``Orderings.pairs``)
    for a mode with an ordering; ``splits`` (B,) each state's ladder as an
    ``Orderings.split`` code, or None for the full ladder of every state.
    lemma1's cells are (None, x): its power x plays mu.
    ``value(cut_probs, pairs, alpha)`` gives the (B,) cut value and the
    (B, n-1) pair values, computed once per distinct alpha.  The left side
    is the cut value raised to mu, the terms are the pair values raised to
    mu, in the order ``value`` gives them, and the weights are the ladder of
    ratio ``base(mu)`` for each state's split, built once per cell.  Every
    split code is nonzero.  Nothing is checked here: the entry's ``cells``
    checks the cells of every caller but ``harness.figure_rows``.
    """
    b, k = pairs.shape
    splits = np.full(b, k - 1) if splits is None else splits
    codes = set(splits.tolist())
    spectra = {
        alpha: value(cut_probs, pairs, alpha)
        for alpha in dict.fromkeys(alpha for alpha, _ in cells)  # distinct, in cell order
    }
    lhs = np.empty((b, len(cells)))
    weights, terms = np.empty((b, len(cells), k)), np.empty((b, len(cells), k))
    for c, (alpha, mu) in enumerate(cells):
        cut, pair = spectra[alpha]
        lhs[:, c], terms[:, c] = powers(cut, mu), powers(pair, mu)
        table, ratio = np.empty((k, k)), base(mu)  # weights per split code, k - 1 the full ladder
        for code in codes:
            table[code] = _ladder_weights(k + 1, code, ratio)
        weights[:, c] = table[splits]
    return lhs, weights, terms


def _renyi_values(cut_probs: np.ndarray, pairs: np.ndarray, alpha: float) -> tuple:
    """The ladder modes' values: the Renyi-alpha cut entropy and ``f_alpha`` at each squared pair.

    On W-class states each pair concurrence equals the pair's concurrence of
    assistance, so the same values serve the monogamy lower bound and the
    polygamy upper bound on assisted entanglement.
    """
    return renyi_entropy(cut_probs, alpha), f_alpha(pairs * pairs, alpha)


def _lemma1_values(cut_probs: np.ndarray, pairs: np.ndarray, _alpha) -> tuple:
    """lemma1's values: the cut concurrence, and the pair concurrences so that C_1 >= C_2."""
    return cut_concurrences(cut_probs), np.sort(pairs, axis=-1)[:, ::-1]


def ladder_report(psi: StateVector, profile: OrderingProfile, params: AlphaMu, mode: str) -> BoundReport:
    """The report of a ladder mode on one state and a profile measured on it, which it trusts.

    Checks the cell (the entry's ``cells``), the state (``admit``) and the
    profile's focus.  The ladder is decided again by ``Orderings.of`` from
    the profile's pair concurrences in its party order: a profile whose
    ``split_index`` is not that decision is refused (ParameterError), and
    PreconditionError means no ladder applies.  The columns are the mode's
    entry of ``BOUNDS``, as in a campaign; the pair terms come from the
    profile and only the state's cut is read, so ``monoq eval`` computes a
    state's features once, in ``detect_ordering``.
    """
    bound = BOUNDS[mode]
    cells = bound.cells((params.alpha,), (params.mu,))
    admit(psi, mode)
    if profile.focus != psi.labels[0]:
        raise UnsupportedStateClassError("the profile's focus must be the state's first qubit")
    orderings = Orderings.of(np.array([profile.pair_concurrences]), relabel=False)
    split = orderings.split_index(0)
    if split != profile.split_index:
        raise ParameterError(f"split {profile.split_index!r} invalid for {1 + len(profile.pair_concurrences)} "
                             f"parties; the profile's pair concurrences give {split!r}")
    if split is None:
        which = "weighted upper bound" if bound.upper else "weighted bound"
        raise PreconditionError(f"ordering hypothesis unsatisfied; the {which} is not claimed")
    columns = bound.columns(cut_probabilities(psi), orderings.pairs, orderings.split, cells)
    kind = f"{bound.kind}-full" if split == FULL else f"{bound.kind}-split-{split}"
    return BoundReport.from_columns(kind, columns, bound.upper, *cells[0])


def profile_report(psi: StateVector, profile: OrderingProfile, params: AlphaMu, mode: str) -> BoundReport:
    """``ladder_report`` of a profile from outside (``theorem_bound``, ``theorem3_bound``).

    The profile is refused unless ``Orderings.of`` gives it, without
    relabeling, from the state's own pair concurrences in its party order:
    the same floats as ``detect_ordering``'s, so the comparison is exact.
    """
    report = ladder_report(psi, profile, params, mode)
    feats = PureFeatures.of_state(psi)
    partners = psi.labels[1:]
    if sorted(profile.party_order) == sorted(partners):
        pairs = BOUNDS[mode].ordered_by(feats)[:, [partners.index(label) for label in profile.party_order]]
        own = Orderings.of(pairs, relabel=False).profile(
            0, (psi.labels[0], *profile.party_order), float(feats.cut_concurrence[0]))
        if own == profile:
            return report
    raise ParameterError("the profile was not measured on this state")


def theorem_bound(psi: StateVector, profile: OrderingProfile, params: AlphaMu) -> BoundReport:
    """Weighted lower bound on the mu-th power of the one-vs-rest entanglement.

    The left side is the pure-cut entanglement raised to mu; the right side
    is the ladder-weighted sum of pairwise two-qubit entanglement powers
    (see ``ladder_terms``), each ``f_alpha`` at the squared pair concurrence
    that ``profile`` measured on ``psi``.
    """
    return profile_report(psi, profile, params, "monogamy")


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
    if not (is_real(t) and 0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    require_power(x, "x")
    margin = (1.0 + t) ** x - 1.0 - ladder_base(x) * t**x
    regime = "lower" if x >= 1.0 else "upper"
    ok = margin >= -1e-12 if regime == "lower" else margin <= 1e-12
    return ScalarCheck(t=t, x=x, margin=float(margin), regime=regime, ok=ok)


class Bound(NamedTuple):
    """Everything that depends on a mode of bound; ``BOUNDS`` holds one per mode.

    A campaign's default mu grid; the report kind (a ladder report adds its
    split); an upper bound on the left side, or a lower one; ``cells``, the
    cells of an alpha and a mu grid, each checked to lie inside the mode's
    theorem (ParameterError otherwise): the only code that builds a cell,
    apart from ``harness.figure_rows``; and ``columns``, (cut_probs,
    pairs, splits, cells) to the (lhs, weights, terms) of ``bound_values``,
    the one route to a mode's values.  A weighted ladder's ``columns`` is
    ``ladder_terms`` with the entry's value function and ladder base bound,
    so a ladder variant is one entry.  ``ordered_by`` reads from
    ``PureFeatures`` the (B, n-1) pair column whose ordering
    (``Orderings.of``) decides the ladder; only states it admits are
    claimed, and pairs and splits (B,) are their party-ordered column and
    ``Orderings.split`` codes.  A mode without one (None) claims every state
    and reads the pair concurrences in label order, with splits None, the
    full ladder.  The state rule: ``require_qubits`` refuses a qubit count,
    and states of ``wclass_from`` qubits or more must be W-class.
    """

    mu_grid: tuple[float, ...]
    kind: str
    upper: bool
    cells: Callable
    columns: Callable
    ordered_by: Callable | None = None
    require_qubits: Callable[[int], None] = lambda n_qubits: None
    wclass_from: float = math.inf

    def needs_wclass(self, n_qubits: int) -> bool:
        """Refuse a qubit count the bound cannot read; whether its states must be W-class."""
        self.require_qubits(n_qubits)
        return n_qubits >= self.wclass_from


def _ladder(mu_grid, kind: str, upper: bool, require_cell, wclass_from: int) -> Bound:
    """A Renyi ladder mode: the (alpha, mu) cells ``require_cell`` admits, three qubits or more (a pair and a tail)."""
    def cells(alphas, mus):
        checked = [require_cell(AlphaMu(alpha, mu)) for alpha in alphas for mu in mus]
        return [(p.alpha, p.mu) for p in checked]

    return Bound(mu_grid, kind, upper, cells, partial(ladder_terms, value=_renyi_values, base=ladder_base),
                 PureFeatures.pair_concurrences.fget, _require_partners, wclass_from)


# Polygamy needs W-class states, whose pair terms are assisted values;
# monogamy needs them beyond three qubits, where tails are root sums of
# squared pair concurrences on W-class states only.  lemma1 is the scalar
# inequality at x / 2 applied to squared concurrences, hence its base.
BOUNDS = {
    "monogamy": _ladder((2.0, 3.0, 5.0), "ladder", False, AlphaMu.require_monogamy, wclass_from=4),
    "polygamy": _ladder((0.25, 0.5, 0.75, 1.0), "assist", True, AlphaMu.require_polygamy, wclass_from=3),
    "lemma1": Bound((2.0, 3.0, 4.0), "lemma1", False,
                    lambda alphas, xs: [(None, require_lemma1_power(x)) for x in xs],
                    partial(ladder_terms, value=_lemma1_values, base=lambda x: ladder_base(x / 2)),
                    require_qubits=_require_three),
    "ckw": Bound((2.0,), "ckw", False, lambda alphas, mus: [(None, None)], squared_terms),
}
