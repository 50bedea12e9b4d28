"""Campaign runner: reference states, figure data, and stochastic bound fuzzing.

Everything here is deterministic under a master seed.  State ``index`` has
the seed ``numpy.random.SeedSequence([master_seed, index])``'s first uint64
and is drawn from ``default_rng(seed)``, so any witness record can be
replayed bit-for-bit from its own fields.  Campaigns compute that contract a
chunk at a time (``derive_seeds``, then ``core.haar_amplitudes`` or
``wclass.wclass_coefficients`` on the chunk's seeds), with no SeedSequence
or Generator per state; ``tests/test_seed_streams.py`` pins it against numpy.
CSV output prints floats with 12 significant digits and no locale
dependence.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAX_QUBITS, StateVector, load_state
from .errors import ConfigError, IoError, PreconditionError
from .measures import ALPHA_MAX, ALPHA_WINDOW, MU_MAX, PureFeatures
from .monogamy import (
    Orderings,
    bound_values,
    ckw_terms,
    ladder_terms,
    lemma1_terms,
    scalar_weight_inequality,
)
from .wclass import (
    build_wclass,
    onehot_indices,
    random_wclass,
    wclass_coefficients,
    wclass_from_state,
)
from . import core, measures

# Order at which the six-decimal reference values of the worked examples are
# quoted.  The exact window endpoint (sqrt(7)-1)/2 shifts them by ~5e-5.
REFERENCE_ALPHA = 0.823

MODES = ("monogamy", "polygamy", "lemma1", "ckw", "scalar")
STATE_CLASSES = ("haar", "wclass", "file")


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------

def generalized_schmidt_state(lambdas, phase: float = 0.0) -> StateVector:
    """Three-qubit state l0|000> + l1 e^{i phase}|100> + l2|101> + l3|110> + l4|111>."""
    l0, l1, l2, l3, l4 = (float(x) for x in lambdas)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = l0
    amps[0b100] = l1 * np.exp(1j * phase)
    amps[0b101] = l2
    amps[0b110] = l3
    amps[0b111] = l4
    return StateVector(amps)


def reference_schmidt_state() -> StateVector:
    """The worked-example state: l0 = l1 = 1/2, l2 = l3 = l4 = sqrt(6)/6."""
    s = np.sqrt(6.0) / 6.0
    return generalized_schmidt_state((0.5, 0.5, s, s, s))


def w_state(n_parties: int = 3) -> StateVector:
    """Uniform single-excitation state on ``n_parties`` qubits."""
    amp = 1.0 / np.sqrt(n_parties)
    _, psi = build_wclass(amp, (amp,) * (n_parties - 1))
    return psi


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def fmt12(value) -> str:
    """Float to 12 significant digits; empty string for missing values."""
    if value is None:
        return ""
    return f"{float(value):.12g}"


def figure_rows(figure: str, alpha: float = REFERENCE_ALPHA):
    """Recomputed bound curves for the two reference displays.

    ``fig1``: the Schmidt example over mu in [2, 10] step 0.05, columns
    (mu, lhs, ours, prior) with lhs the cut entanglement power, ours the
    ladder-weighted pair sum, prior the unweighted pair sum.  ``fig2``: the
    W state over mu in [0, 1] step 0.01 with assisted quantities.  Everything
    is recomputed from the state; no tabulated constants.
    """
    if figure == "fig1":
        psi, mus = reference_schmidt_state(), [2.0 + k / 20.0 for k in range(161)]
    elif figure == "fig2":
        psi, mus = w_state(3), [k / 100.0 for k in range(101)]
    else:
        raise ConfigError(f"unknown figure {figure!r}; expected fig1 or fig2")
    feats = PureFeatures.of_state(psi)
    e_cut = measures.renyi_entropy(feats.cut_probs[0], alpha)
    pairs = (feats.pair_concurrences if figure == "fig1" else feats.pair_coas)[0]
    e_pairs = measures.f_alpha(pairs * pairs, alpha).tolist()
    rows = []
    for mu in mus:
        terms = [e**mu for e in e_pairs]
        ours = terms[0] + (2.0**mu - 1.0) * terms[1]
        prior = 0.0
        for term in terms:  # left to right: sum() compensates from Python 3.12 on
            prior += term
        rows.append((mu, e_cut**mu, ours, prior))
    return ("mu", "lhs", "ours", "prior"), rows


def write_csv(header, rows, stream) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(fmt12(x) for x in row) + "\n")


def figure_csv(figure: str, alpha: float = REFERENCE_ALPHA) -> str:
    header, rows = figure_rows(figure, alpha)
    buf = io.StringIO()
    write_csv(header, rows, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# campaign configuration
# ---------------------------------------------------------------------------

_MODE_MU_DEFAULTS = {
    "monogamy": (2.0, 3.0, 5.0),
    "polygamy": (0.25, 0.5, 0.75, 1.0),
    "lemma1": (2.0, 3.0, 4.0),
    "ckw": (2.0,),
    "scalar": tuple(np.round(np.linspace(0.0, 6.0, 25), 10)),
}


@dataclass(frozen=True)
class CampaignConfig:
    """Fully resolved fuzzing campaign parameters.

    ``mu_grid`` and ``state_class`` default by mode: the mode's mu grid, and
    W-class states for polygamy (its bound needs them), Haar otherwise.
    """

    mode: str
    n_states: int = 1000
    n_qubits: int = 3
    alpha_grid: tuple[float, ...] = ALPHA_WINDOW
    mu_grid: tuple[float, ...] | None = None
    seed: int = 20240823
    state_class: str | None = None
    tolerance: float = 1e-9
    state_file: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.state_class is None:
            object.__setattr__(self, "state_class", "wclass" if self.mode == "polygamy" else "haar")
        if self.mu_grid is None:
            object.__setattr__(self, "mu_grid", _MODE_MU_DEFAULTS[self.mode])
        if self.state_class not in STATE_CLASSES:
            raise ConfigError(f"class must be one of {STATE_CLASSES}, got {self.state_class!r}")
        if self.mode == "polygamy" and self.state_class == "haar":
            raise ConfigError("polygamy campaigns need W-class states; use class wclass or file")
        if self.n_states < 1:
            raise ConfigError(f"n_states must be at least 1, got {self.n_states}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not self.alpha_grid or not self.mu_grid:
            raise ConfigError("alpha and mu grids must be nonempty")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.state_class == "file" and not self.state_file:
            raise ConfigError("state class 'file' needs a state file path")
        # checked here, before any 2**n-sized stack: campaigns trust it after
        low = 3 if self.state_class == "wclass" else 1
        sampled = self.mode != "scalar" and self.state_class != "file"
        if sampled and not low <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(
                f"{self.state_class} states need n_qubits in [{low}, {MAX_QUBITS}], "
                f"got {self.n_qubits}"
            )
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "mu_grid", tuple(float(m) for m in self.mu_grid))
        if not all(map(math.isfinite, (self.tolerance, *self.alpha_grid, *self.mu_grid))):
            raise ConfigError(
                f"tolerance and grid values must be finite, got tolerance {self.tolerance}, "
                f"alpha {self.alpha_grid}, mu {self.mu_grid}"
            )
        if max(self.mu_grid) > MU_MAX:
            raise ConfigError(f"mu values must be at most {MU_MAX:g}, got {self.mu_grid}")
        if min(self.mu_grid) < 0.0:
            raise ConfigError(f"mu values must be nonnegative, got {self.mu_grid}")
        if not all(0.0 < a <= ALPHA_MAX for a in self.alpha_grid):
            raise ConfigError(f"alpha values must be in (0, {ALPHA_MAX:g}], got {self.alpha_grid}")


def parse_config_file(path) -> dict:
    """Flat key=value campaign file; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _SETTINGS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def parse_grid(text) -> tuple[float, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(float(x) for x in text)
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad numeric grid {text!r}: {exc}") from exc


# Campaign settings by key (config file and CLI): (CampaignConfig field, parser).
_SETTINGS = {
    "mode": ("mode", str),
    "states": ("n_states", int),
    "qubits": ("n_qubits", int),
    "alpha": ("alpha_grid", parse_grid),
    "mu": ("mu_grid", parse_grid),
    "seed": ("seed", int),
    "class": ("state_class", str),
    "tolerance": ("tolerance", float),
    "state": ("state_file", str),
}


def build_config(settings: dict) -> CampaignConfig:
    """Resolve a key=value mapping (file and/or CLI overrides) into a config.

    Unknown keys and None values are ignored; defaults come from
    CampaignConfig.
    """
    if settings.get("mode") is None:
        raise ConfigError("campaign mode is required")
    kwargs = {}
    for key, (field, parse) in _SETTINGS.items():
        if settings.get(key) is not None:
            kwargs[field] = parse(settings[key])
    return CampaignConfig(**kwargs)


# ---------------------------------------------------------------------------
# witnesses and campaigns
# ---------------------------------------------------------------------------

class WitnessRecord(NamedTuple):
    """One evaluated inequality instance, replayable from its own fields."""

    index: int
    mode: str
    state_class: str
    n_qubits: int
    state_seed: int
    alpha: float | None
    mu: float | None
    lhs: float
    rhs: float
    margin: float
    baseline_rhs: float
    t: float | None = None

    # Witness CSV columns in order: {column: field}.
    CSV_COLUMNS = {
        "index": "index",
        "mode": "mode",
        "class": "state_class",
        "qubits": "n_qubits",
        "state_seed": "state_seed",
        "alpha": "alpha",
        "mu": "mu",
        "t": "t",
        "lhs": "lhs",
        "rhs": "rhs",
        "margin": "margin",
        "baseline_rhs": "baseline_rhs",
    }

    def to_csv_row(self) -> tuple:
        """CSV fields: integers and names as written, floats via ``fmt12``."""
        return tuple(_csv_field(getattr(self, field)) for field in self.CSV_COLUMNS.values())


def _csv_field(value) -> str:
    return str(value) if isinstance(value, (int, str)) else fmt12(value)


# Rows per write of ``CampaignResult.write_records_csv``.
CSV_CHUNK_ROWS = 1024


def derive_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """uint64 seeds of states start..stop-1: ``SeedSequence([master_seed, index])``'s first uint64.

    The whole index range is hashed at once by ``core.seed_sequence_state``.
    The entropy is the little-endian uint32 words of the master seed, then of
    the index: one word below 2**32 and two from there on, so a range
    crossing 2**32 is hashed in two groups.
    """
    if master_seed < 0 or stop > 2**64:
        raise ConfigError(f"need a nonnegative master seed and indices below 2**64, got "
                          f"{master_seed} and [{start}, {stop})")
    bits = range(0, max(32, master_seed.bit_length()), 32)
    master = [master_seed >> shift & 0xFFFFFFFF for shift in bits]
    groups = []
    for low, high in ((0, 2**32), (2**32, 2**64)):
        first, last = max(start, low), min(stop, high)
        if first < last:
            indices = np.arange(first, last, dtype=np.uint64)
            words = [indices] if low == 0 else [indices & 0xFFFFFFFF, indices >> 32]
            groups.append(core.seed_sequence_state(master + words, 1)[0])
    return np.concatenate(groups) if groups else np.empty(0, dtype=np.uint64)


def _wclass_stack(n_qubits: int, seeds) -> np.ndarray:
    stack = np.zeros((len(seeds), 2**n_qubits), dtype=complex)
    stack[:, onehot_indices(n_qubits)] = wclass_coefficients(n_qubits, seeds)
    return stack


# The (B, 2**n) amplitude stack of a seeded state class, one row per seed,
# written straight from the class's draw helper: no state object is built per
# sampled state, and the qubit count is the one CampaignConfig checked.
_DRAWS = {"haar": core.haar_amplitudes, "wclass": _wclass_stack}


def _sample_state(state_class: str, n_qubits: int, seed: int) -> StateVector:
    """The state of a seeded record, through the checked public constructors."""
    if state_class == "haar":
        return core.haar_random_state(n_qubits, seed)
    if state_class == "wclass":
        return random_wclass(n_qubits, seed).to_state_vector()
    raise ConfigError(f"{state_class!r} states have no seed; pass the state in")


def _entering(mode: str, psi: StateVector) -> StateVector:
    """``psi``, checked to be W-class where ``mode`` reads it as one.

    The polygamy pair terms are assisted values, and the ordering tails
    beyond three qubits root sums of squared pair concurrences, only on
    W-class states; ``wclass_from_state`` raises on any other state.
    """
    if mode == "polygamy" or (mode == "monogamy" and psi.n_qubits > 3):
        wclass_from_state(psi)
    return psi


def _csv_template(mode, state_class, n_qubits, alpha, mu, t) -> str:
    """CSV line format of rows with these fields: index and seed by ``%s``, floats by ``%.12g``."""
    fixed = [_csv_field(v).replace("%", "%%") for v in (mode, state_class, n_qubits, alpha, mu, t)]
    return ",".join(["%s", *fixed[:3], "%s", *fixed[3:], "%.12g", "%.12g", "%.12g", "%.12g"]) + "\n"


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Aggregate of a fuzzing run plus every evaluated witness, held as columns.

    ``block`` (B, C, 4) holds (lhs, rhs, margin, baseline_rhs) of each of the
    B passing states in each of the C cells, ``indices`` (B, C) the record
    index of each (state, cell) and ``seeds`` (B,) each state's seed.
    ``cells`` holds, per cell, the fields its records share: (mode,
    state_class, n_qubits, alpha, mu, t).  Records run state-major and
    cell-minor; ``records`` and ``worst`` build ``WitnessRecord``s on demand.
    """

    config: CampaignConfig
    cells: tuple[tuple, ...]
    indices: np.ndarray
    seeds: np.ndarray
    block: np.ndarray
    n_sampled: int
    n_satisfied: int
    n_skipped: int
    # ordering decisions, None in modes without a hypothesis: states per
    # split code (0 for none, m for a split at m, n-2 for the full ladder),
    # and skipped states per index of their first failed ">=" condition
    split_counts: tuple[int, ...] | None = None
    first_failed_ge: tuple[int, ...] | None = None

    @property
    def n_records(self) -> int:
        return self.indices.size

    @property
    def records(self) -> tuple[WitnessRecord, ...]:
        return tuple(map(self._record, range(self.n_records)))

    def _record(self, k: int) -> WitnessRecord:
        """Record k in state-major, cell-minor order."""
        b, c = divmod(k, len(self.cells))
        mode, state_class, n_qubits, alpha, mu, t = self.cells[c]
        return WitnessRecord(int(self.indices[b, c]), mode, state_class, n_qubits,
                             int(self.seeds[b]), alpha, mu, *self.block[b, c].tolist(), t)

    @property
    def n_violations(self) -> int:
        tol = self.config.tolerance
        return int(np.count_nonzero(~(self.block[..., 2] >= -tol)))  # NaN counts

    @property
    def n_nonfinite_margins(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.block[..., 2])))

    @property
    def min_margin(self) -> float:
        worst = self.worst
        return float("nan") if worst is None else worst.margin

    @property
    def mean_tightness_gain(self) -> float:
        gains = np.abs(self.block[..., 1] - self.block[..., 3]).ravel()  # state-major
        return float(np.mean(gains)) if gains.size else float("nan")

    @property
    def worst(self) -> WitnessRecord | None:
        """First record of smallest margin; a NaN margin is smaller than any number."""
        if not self.n_records:
            return None
        return self._record(int(np.argmin(self.block[..., 2])))  # argmin stops at a NaN

    def summary(self) -> dict:
        worst = self.worst
        return {
            "mode": self.config.mode,
            "state_class": self.config.state_class,
            "n_qubits": self.config.n_qubits,
            "seed": self.config.seed,
            "tolerance": self.config.tolerance,
            "n_sampled": self.n_sampled,
            "n_hypothesis_satisfied": self.n_satisfied,
            "n_skipped": self.n_skipped,
            "n_records": self.n_records,
            "n_violations": self.n_violations,
            "min_margin": None if worst is None else worst.margin,
            "mean_tightness_gain": None if worst is None else self.mean_tightness_gain,
            "worst": None if worst is None else worst._asdict(),
            "split_histogram": self.split_histogram,
            "skip_reasons": self.skip_reasons,
            "n_nonfinite_margins": self.n_nonfinite_margins,
        }

    @property
    def split_histogram(self) -> dict | None:
        """States per ladder: ``"full"``, each split index, then ``"none"`` for skipped states."""
        if self.split_counts is None:
            return None
        none, *splits, full = self.split_counts
        return {"full": full, **{str(m): c for m, c in enumerate(splits, start=1)}, "none": none}

    @property
    def skip_reasons(self) -> dict | None:
        """Skipped states per first failed condition, keyed ``"satisfied_ge[i]"``."""
        if self.first_failed_ge is None:
            return None
        return {f"satisfied_ge[{i}]": c for i, c in enumerate(self.first_failed_ge)}

    def write_records_csv(self, stream) -> None:
        """Header, then the records as ``to_csv_row`` prints them, CSV_CHUNK_ROWS lines per write.

        Each line fills its cell's template (see ``_csv_template``), made once
        per cell, with the record's index, seed and four values.
        """
        stream.write(",".join(WitnessRecord.CSV_COLUMNS) + "\n")
        if not self.n_records:
            return
        templates = [_csv_template(*cell) for cell in self.cells]
        fields = zip(self.indices.ravel().tolist(), np.repeat(self.seeds, len(templates)).tolist(),
                     *self.block.reshape(-1, 4).T.tolist())
        rows = zip(itertools.cycle(templates), fields)
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            stream.write("".join([template % values for template, values in chunk]))


def _scalar_margin(t: float, x: float) -> float:
    """Scalar-inequality margin oriented so that >= -tol means its regime holds."""
    check = scalar_weight_inequality(t, x)
    return check.margin if check.regime == "lower" else -check.margin


def _scalar_campaign(config: CampaignConfig) -> CampaignResult:
    """The scalar grid as one row of cells: a cell and a record index per (x, t)."""
    cells, values = [], []
    for x in config.mu_grid:
        for t in np.linspace(0.0, 1.0, 200):
            rhs = 1.0 + (2.0**x - 1.0) * t**x
            values.append(((1.0 + t) ** x, rhs, _scalar_margin(float(t), float(x)), rhs))
            cells.append(("scalar", "grid", 0, None, float(x), float(t)))
    n = len(cells)
    return CampaignResult(config, tuple(cells), np.arange(n)[None], np.zeros(1, dtype=np.uint64),
                          np.array([values]), n, n, 0)


class _Passed(NamedTuple):
    """The states of one ``_evaluate`` call whose hypothesis holds.

    ``pairs`` holds their pair concurrences in party order and ``splits``
    their ``Orderings.split`` codes; both are None in modes without a
    hypothesis.
    """

    feats: PureFeatures
    pairs: np.ndarray | None
    splits: np.ndarray | None


# Per-mode evaluators (passed states, cells) -> (lhs, weights, terms) columns
# of every passed state and cell, shared by campaigns and replay so that a
# record and its replay cannot drift apart.  The public per-state functions
# build their reports from the same ``*_terms`` functions and ``bound_values``.
_EVALUATORS = {
    "ckw": lambda passed, cells: ckw_terms(passed.feats),
    "lemma1": lambda passed, cells: lemma1_terms(passed.feats, [mu for _, mu in cells]),
    "monogamy": lambda passed, cells: ladder_terms(
        passed.feats.cut_probs, passed.pairs, passed.splits, cells, upper=False
    ),
    "polygamy": lambda passed, cells: ladder_terms(
        passed.feats.cut_probs, passed.pairs, passed.splits, cells, upper=True
    ),
}

# Modes whose bound holds without an ordering hypothesis.
_NO_HYPOTHESIS = ("ckw", "lemma1")

# A feature batch holds at most this many amplitudes (1 MiB of complex
# numbers): 8192 three-qubit states, 64 ten-qubit states.
CHUNK_AMPLITUDES = 2**16


def _evaluate(mode: str, amplitudes: np.ndarray, cells) -> tuple:
    """The rows of a (B, 2**n) stack whose hypothesis holds, their values, the decision.

    Returns the indices of the passing rows; their (lhs, rhs, margin,
    baseline) block of shape (len(keep), len(cells), 4); and the ordering
    decision of every row, or None for ckw and lemma1, which have no
    hypothesis.  The features are computed once from the stacked
    amplitudes, the hypotheses are decided for the whole stack at once, and
    every cell is evaluated as columns over the passing rows.
    """
    feats = PureFeatures.of(amplitudes)
    if mode in _NO_HYPOTHESIS:
        keep, orderings, passed = np.arange(len(amplitudes)), None, _Passed(feats, None, None)
    else:
        orderings = Orderings.of(feats.pair_concurrences)
        keep = np.flatnonzero(orderings.split)
        if not keep.size:
            return keep, np.empty((0, len(cells), 4)), orderings
        passed = _Passed(feats.take(keep), orderings.pairs[keep], orderings.split[keep])
    columns = _EVALUATORS[mode](passed, cells)
    return keep, bound_values(*columns, upper=mode == "polygamy"), orderings


def _cells(config: CampaignConfig) -> list[tuple[float | None, float | None]]:
    """The (alpha, mu) cells evaluated on every state of a campaign."""
    if config.mode == "ckw":
        return [(None, None)]
    if config.mode == "lemma1":
        return [(None, mu) for mu in config.mu_grid]
    return [(alpha, mu) for alpha in config.alpha_grid for mu in config.mu_grid]


def _sampled_chunks(config: CampaignConfig):
    """(first index, seeds, (B, 2**n) amplitudes, labels) per chunk of the campaign's states.

    A chunk holds at most CHUNK_AMPLITUDES amplitudes, or one state.
    """
    if config.state_class == "file":
        psi = _entering(config.mode, load_state(config.state_file))
        yield 0, [0], psi.amplitudes[None], psi.labels
        return
    n = config.n_qubits
    labels = core.default_labels(n)
    size = max(1, CHUNK_AMPLITUDES // 2**n)
    draw = _DRAWS[config.state_class]
    for start in range(0, config.n_states, size):
        stop = min(start + size, config.n_states)
        seeds = derive_seeds(config.seed, start, stop)
        yield start, seeds.tolist(), draw(n, seeds), labels


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Sample states, filter by hypothesis, evaluate margins, collect witnesses.

    States whose hypothesis fails are counted and skipped, never asserted:
    the weighted bounds claim nothing for them.
    """
    if config.mode == "scalar":
        return _scalar_campaign(config)
    if config.mode == "monogamy" and config.state_class == "haar" and config.n_qubits > 3:
        raise ConfigError(
            "haar states beyond 3 qubits have no computable ordering tails; use class=wclass"
        )
    if config.mode == "lemma1" and config.state_class != "file" and config.n_qubits != 3:
        raise ConfigError(f"lemma1 campaigns need three-qubit states, got n_qubits {config.n_qubits}")
    if config.mode == "lemma1" and min(config.mu_grid) < 2.0:
        raise ConfigError(f"lemma1 campaigns need powers of at least 2, got {config.mu_grid}")

    mode, cells = config.mode, _cells(config)
    indices, seeds, blocks = [], [], []
    n_sampled = 0
    decisions = []  # per chunk: states per split code, skipped states per first failed ">="
    for start, chunk_seeds, amplitudes, labels in _sampled_chunks(config):
        n_sampled += len(chunk_seeds)
        keep, block, orderings = _evaluate(mode, amplitudes, cells)
        indices.append(start + keep)
        seeds.append(np.array(chunk_seeds, dtype=np.uint64)[keep])
        blocks.append(block)
        if orderings is not None:
            # a skipped state fails some ">=" condition; argmin finds its first
            n = len(labels)
            skipped = orderings.ge[orderings.split == 0]
            decisions.append((np.bincount(orderings.split, minlength=n - 1),
                              np.bincount(np.argmin(skipped, axis=1), minlength=n - 2)))
    counts = [tuple(np.sum(c, axis=0).tolist()) for c in zip(*decisions)] or [None, None]
    fields = (mode, config.state_class, len(labels))
    index = np.concatenate(indices)
    return CampaignResult(config, tuple((*fields, alpha, mu, None) for alpha, mu in cells),
                          np.repeat(index[:, None], len(cells), axis=1), np.concatenate(seeds),
                          np.concatenate(blocks), n_sampled, len(index), n_sampled - len(index),
                          *counts)


def replay_record(record: WitnessRecord, state: StateVector | None = None) -> float:
    """Recompute a witness margin from its recorded parameters.

    File-class records carry no seed, so their state must be passed in.  The
    state goes through the campaign's own path as a batch of one.
    """
    if record.mode == "scalar":
        return _scalar_margin(record.t, record.mu)
    if record.mode not in _EVALUATORS:
        raise ConfigError(f"cannot replay mode {record.mode!r}")
    if state is None:
        state = _sample_state(record.state_class, record.n_qubits, record.state_seed)
    psi = _entering(record.mode, state)
    keep, block, _ = _evaluate(record.mode, psi.amplitudes[None], [(record.alpha, record.mu)])
    if not keep.size:
        raise PreconditionError("recorded state no longer satisfies the hypothesis")
    return float(block[0, 0, 2])


def falpha_table(alphas, points: int = 101):
    """Rows (x, f_alpha(x) per order) on a uniform grid of [0, 1]."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ConfigError("need at least one alpha")
    if points < 2:
        raise ConfigError(f"need at least 2 grid points, got {points}")
    xs = np.linspace(0.0, 1.0, points)
    header = ("x",) + tuple(f"f_alpha={fmt12(a)}" for a in alphas)
    rows = [(float(x),) + tuple(measures.f_alpha(float(x), a) for a in alphas) for x in xs]
    return header, rows
