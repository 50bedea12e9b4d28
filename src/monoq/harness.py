"""Campaign runner: reference states, figure data, and stochastic bound fuzzing.

Everything here is deterministic under a master seed.  State ``index`` has
the seed ``numpy.random.SeedSequence([master_seed, index])``'s first uint64
and is drawn from ``default_rng(seed)``, so any witness record replays
bit-for-bit from its own fields.  Campaigns and the replay of a seeded
record compute that contract a chunk at a time (``derive_seeds``, then
``_DRAWS``); a state from outside (a state file, or a state passed to
replay) enters through ``monogamy.enter``.  Every check runs there, or on
the config (or a replayed record) before the first draw, by the mode's entry
in ``monogamy.BOUNDS``; the evaluators trust their input.  CSV output prints
floats with 12 significant digits and no locale dependence.
"""

from __future__ import annotations

import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAX_QUBITS, StateVector, is_int, is_real, load_state
from .errors import ConfigError, IoError, ParameterError, PreconditionError, UnsupportedStateClassError
from .measures import ALPHA_MAX, ALPHA_WINDOW, MU_MAX, PureFeatures
from .monogamy import (
    BOUNDS,
    Orderings,
    bound_values,
    enter,
    ladder_base,
    scalar_weight_inequality,
)
from .wclass import build_wclass, wclass_coefficients
from . import core, measures

# Order at which the six-decimal reference values of the worked examples are
# quoted.  The exact window endpoint (sqrt(7)-1)/2 shifts them by ~5e-5.
REFERENCE_ALPHA = 0.823

MODES = (*BOUNDS, "scalar")
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
    pair sum weighted by the full three-qubit ladder, prior the unweighted
    pair sum.  ``fig2``: the W state over mu in [0, 1] step 0.01, whose pair
    concurrences are its assisted values.  The columns are the ``columns``
    of the figure's mode in ``monogamy.BOUNDS`` (monogamy, then polygamy),
    read with the entry's ``ordered_by`` pair column in label order and the
    full ladder (splits None), one cell per mu, and added by
    ``bound_values``, as in a campaign; no tabulated constants.  The cells
    are built here, not by the entry's ``cells``, so ``alpha`` need not lie
    in the theorem's window: ``monoq reproduce --alpha`` takes any order
    that ``f_alpha`` takes.
    """
    if figure == "fig1":
        psi, mus, bound = reference_schmidt_state(), [2.0 + k / 20.0 for k in range(161)], BOUNDS["monogamy"]
    elif figure == "fig2":
        psi, mus, bound = w_state(3), [k / 100.0 for k in range(101)], BOUNDS["polygamy"]
    else:
        raise ConfigError(f"unknown figure {figure!r}; expected fig1 or fig2")
    feats = PureFeatures.of_state(psi)
    cells = [(alpha, mu) for mu in mus]
    columns = bound.columns(feats.cut_probs, bound.ordered_by(feats), None, cells)
    block = bound_values(*columns, upper=bound.upper)[0].tolist()
    rows = [(mu, left, ours, prior) for mu, (left, ours, _, prior) in zip(mus, block)]
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

# The default x grid of the scalar inequality, the one mode that reads no state.
_SCALAR_MU_GRID = tuple(np.round(np.linspace(0.0, 6.0, 25), 10))


@dataclass(frozen=True)
class CampaignConfig:
    """Fully resolved fuzzing campaign parameters.

    ``mu_grid`` and ``state_class`` default by mode: the mode's mu grid, and
    W-class states for a bound that needs them from three qubits on
    (polygamy), Haar otherwise.  A ``state_file`` (a str or os.PathLike
    path) makes the class ``file``; any other class with one, and the
    scalar mode, which reads no state, are refused.  Each grid is a
    nonempty tuple or list of numbers, stored as a tuple of floats.  A
    campaign whose bound claims nothing is refused here, before the first
    draw (see ``_require_claims``).
    """

    mode: str
    n_states: int = 1000
    n_qubits: int = 3
    alpha_grid: tuple[float, ...] = ALPHA_WINDOW
    mu_grid: tuple[float, ...] | None = None
    seed: int = 20240823
    state_class: str | None = None
    tolerance: float = 1e-9
    state_file: str | os.PathLike | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        bound = BOUNDS.get(self.mode)  # None in scalar mode
        if self.state_class is None:
            seeded = "wclass" if bound and bound.wclass_from <= 3 else "haar"
            object.__setattr__(self, "state_class", seeded if self.state_file is None else "file")
        if self.mu_grid is None:
            object.__setattr__(self, "mu_grid", _SCALAR_MU_GRID if bound is None else bound.mu_grid)
        if self.state_class not in STATE_CLASSES:
            raise ConfigError(f"class must be one of {STATE_CLASSES}, got {self.state_class!r}")
        for name in ("n_states", "n_qubits", "seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_states < 1:
            raise ConfigError(f"n_states must be at least 1, got {self.n_states}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not is_real(self.tolerance):
            raise ConfigError(f"tolerance must be a number, got {self.tolerance!r}")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.state_file is not None and not isinstance(self.state_file, (str, os.PathLike)):
            raise ConfigError(f"state_file must be a str or os.PathLike path, got {self.state_file!r}")
        if self.state_file is not None and bound is None:
            raise ConfigError("scalar campaigns read no state file")
        if self.state_file is not None and self.state_class != "file":
            raise ConfigError(f"a state file is read by class 'file' only, got class {self.state_class!r}")
        if self.state_class == "file" and not self.state_file:
            raise ConfigError("state class 'file' needs a state file path")
        for name in ("alpha_grid", "mu_grid"):
            grid = getattr(self, name)
            if not (isinstance(grid, (tuple, list)) and grid and all(map(is_real, grid))):
                raise ConfigError(f"{name} must be a nonempty tuple or list of numbers, got {grid!r}")
            object.__setattr__(self, name, tuple(map(float, grid)))
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
        if bound is not None:
            seeded = None if self.state_class == "file" else self.state_class
            _require_claims(self.mode, seeded, self.n_qubits, self.alpha_grid, self.mu_grid)


def parse_config_file(path) -> dict:
    """Flat key=value campaign file; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
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
    CampaignConfig.  A ``str`` value is parsed by its key's parser (a
    ValueError becomes a ConfigError naming the key); any other value goes
    to ``CampaignConfig`` as it is, which checks its type.
    """
    if settings.get("mode") is None:
        raise ConfigError("campaign mode is required")
    kwargs = {}
    for key, (field, parse) in _SETTINGS.items():
        value = settings.get(key)
        if isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        if value is not None:
            kwargs[field] = value
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


# The features of a chunk of a seeded state class, one row per seed: Haar
# chunks from their (B, 2**n) amplitudes, W-class chunks from their (B, n)
# coefficients.  No state object is built per state.
_DRAWS = {
    "haar": lambda n, seeds: PureFeatures.of(core.haar_amplitudes(n, seeds)),
    "wclass": lambda n, seeds: PureFeatures.of_wclass(wclass_coefficients(n, seeds)),
}

# Numbers a chunk of ``_DRAWS`` holds per n-qubit state, which size the chunks.
_DRAW_WIDTH = {"haar": lambda n: 2**n, "wclass": lambda n: n}


def _require_claims(mode: str, state_class: str | None, n_qubits: int, alphas, mus) -> list:
    """The checked cells of a campaign's or a record's grids; ConfigError where its bound claims nothing.

    Checked before the first draw, by ``CampaignConfig`` and by
    ``replay_record``; the evaluators trust it.  ``n_qubits`` must be an
    integer.  A seeded ``state_class`` must be one ``_DRAWS`` can draw at
    ``n_qubits``, and its states must meet the mode's state rule, as
    ``monogamy.enter`` applies it to a state from outside: a Haar draw is
    never W-class.  ``state_class`` is None for a state from outside, which
    ``enter`` checks when it is read.  Then the mode's entry builds the
    cells (``Bound.cells``), each inside the mode's theorem, its alpha and
    mu numbers where the mode reads them.
    """
    bound = BOUNDS[mode]
    if not is_int(n_qubits):
        raise ConfigError(f"n_qubits must be an integer, got {n_qubits!r}")
    try:
        if state_class is not None:
            if state_class not in _DRAWS:
                raise ConfigError(f"{state_class!r} states have no seed; pass the state in")
            low = 3 if state_class == "wclass" else 2  # every bound needs a partner for the first qubit
            if not low <= n_qubits <= MAX_QUBITS:
                raise ConfigError(f"{state_class} states need n_qubits in [{low}, {MAX_QUBITS}], got {n_qubits}")
            if bound.needs_wclass(n_qubits) and state_class != "wclass":
                raise ConfigError(f"{mode} campaigns on {n_qubits} qubits need W-class states, not {state_class}")
        return bound.cells(alphas, mus)
    except (ParameterError, UnsupportedStateClassError) as exc:
        raise ConfigError(f"{mode} campaigns: {exc}") from exc


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
    In a mode with an ordering, ``split_histogram`` holds the states per
    ladder (``"full"``, each split index, then ``"none"`` for skipped
    states) and ``skip_reasons`` the skipped states per first failed ">="
    condition (``"satisfied_ge[i]"``), as the summary prints them; both are
    None in other modes.
    """

    config: CampaignConfig
    cells: tuple[tuple, ...]
    indices: np.ndarray
    seeds: np.ndarray
    block: np.ndarray
    n_sampled: int
    n_satisfied: int
    n_skipped: int
    split_histogram: dict | None = None
    skip_reasons: dict | None = None

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

    def write_records_csv(self, stream) -> None:
        """Header, then the records as ``to_csv_row`` prints them, CSV_CHUNK_ROWS lines per write.

        Each line fills its cell's template (see ``_csv_template``), made once
        per cell, with the record's index, seed and four values, read from the
        columns one chunk at a time.
        """
        stream.write(",".join(WitnessRecord.CSV_COLUMNS) + "\n")
        templates = itertools.cycle([_csv_template(*cell) for cell in self.cells])
        indices, values = self.indices.ravel(), self.block.reshape(-1, 4)
        for lo in range(0, self.n_records, CSV_CHUNK_ROWS):
            hi = min(lo + CSV_CHUNK_ROWS, self.n_records)
            seeds = self.seeds[np.arange(lo, hi) // len(self.cells)]
            fields = zip(indices[lo:hi].tolist(), seeds.tolist(), *values[lo:hi].T.tolist())
            # fields first: zip stops on them without taking a template
            stream.write("".join([template % line for line, template in zip(fields, templates)]))


def _scalar_margin(t: float, x: float) -> float:
    """Scalar-inequality margin oriented so that >= -tol means its regime holds."""
    check = scalar_weight_inequality(t, x)
    return check.margin if check.regime == "lower" else -check.margin


def _scalar_campaign(config: CampaignConfig) -> CampaignResult:
    """The scalar grid as one row of cells: a cell and a record index per (x, t)."""
    cells, values = [], []
    for x in config.mu_grid:
        for t in np.linspace(0.0, 1.0, 200):
            rhs = 1.0 + ladder_base(x) * t**x
            values.append(((1.0 + t) ** x, rhs, _scalar_margin(float(t), float(x)), rhs))
            cells.append(("scalar", "grid", 0, None, float(x), float(t)))
    n = len(cells)
    return CampaignResult(config, tuple(cells), np.arange(n)[None], np.zeros(1, dtype=np.uint64),
                          np.array([values]), n, n, 0)


# A chunk's draw holds at most this many complex numbers (1 MiB): 8192
# three-qubit or 64 ten-qubit Haar states, 21845 three-qubit or 6553
# ten-qubit W-class states.
CHUNK_AMPLITUDES = 2**16


def _evaluate(mode: str, feats: PureFeatures, cells) -> tuple:
    """The states of a chunk's features whose hypothesis holds, their values, the decision.

    Returns the indices of the passing states; their (lhs, rhs, margin,
    baseline) block of shape (len(keep), len(cells), 4); and the ordering
    decision of every state, or None in a mode without an ordering.  The
    mode's ``BOUNDS`` entry decides the ordering of its ``ordered_by`` pair
    column for the whole chunk at once, and its ``columns`` evaluate every
    cell over the passing states.  A chunk with no passing state returns
    before the columns, which cost about 150 us even on no states.
    """
    bound = BOUNDS[mode]
    if bound.ordered_by is None:
        keep, orderings = np.arange(len(feats.cut_probs)), None
        columns = bound.columns(feats.cut_probs, feats.pair_concurrences, None, cells)
    else:
        orderings = Orderings.of(bound.ordered_by(feats))
        keep = np.flatnonzero(orderings.split)
        if not keep.size:
            return keep, np.empty((0, len(cells), 4)), orderings
        columns = bound.columns(feats.cut_probs[keep], orderings.pairs[keep], orderings.split[keep], cells)
    return keep, bound_values(*columns, upper=bound.upper), orderings


def _sampled_chunks(config: CampaignConfig):
    """(first index, seeds, features) per chunk of the campaign's states.

    A chunk holds at most CHUNK_AMPLITUDES numbers' worth of draws
    (amplitudes or W-class coefficients, ``_DRAW_WIDTH``), or one state.
    """
    if config.state_class == "file":
        yield 0, [0], enter(load_state(config.state_file), config.mode)
        return
    n = config.n_qubits
    size = max(1, CHUNK_AMPLITUDES // _DRAW_WIDTH[config.state_class](n))
    draw = _DRAWS[config.state_class]
    for start in range(0, config.n_states, size):
        stop = min(start + size, config.n_states)
        seeds = derive_seeds(config.seed, start, stop)
        yield start, seeds.tolist(), draw(n, seeds)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Sample states, filter by hypothesis, evaluate margins, collect witnesses.

    States whose hypothesis fails are counted and skipped, never asserted:
    the weighted bounds claim nothing for them.
    """
    if config.mode == "scalar":
        return _scalar_campaign(config)
    mode, cells = config.mode, BOUNDS[config.mode].cells(config.alpha_grid, config.mu_grid)

    indices, seeds, blocks = [], [], []
    n_sampled = 0
    decisions = []  # per chunk: states per split code, skipped states per first failed ">="
    for start, chunk_seeds, feats in _sampled_chunks(config):
        n = feats.pair_lambdas.shape[1] + 1
        n_sampled += len(chunk_seeds)
        keep, block, orderings = _evaluate(mode, feats, cells)
        indices.append(start + keep)
        seeds.append(np.array(chunk_seeds, dtype=np.uint64)[keep])
        blocks.append(block)
        if orderings is not None:
            # a skipped state fails some ">=" condition; argmin finds its first
            skipped = orderings.ge[orderings.split == 0]
            decisions.append((np.bincount(orderings.split, minlength=n - 1),
                              np.bincount(np.argmin(skipped, axis=1), minlength=n - 2)))
    histogram = reasons = None
    if decisions:  # split code 0 is none, n-2 the full ladder
        (none, *splits, full), first_failed = (np.sum(c, axis=0).tolist() for c in zip(*decisions))
        histogram = {"full": full, **{str(m): c for m, c in enumerate(splits, start=1)}, "none": none}
        reasons = {f"satisfied_ge[{i}]": c for i, c in enumerate(first_failed)}
    fields = (mode, config.state_class, n)
    index = np.concatenate(indices)
    return CampaignResult(config, tuple((*fields, alpha, mu, None) for alpha, mu in cells),
                          np.repeat(index[:, None], len(cells), axis=1), np.concatenate(seeds),
                          np.concatenate(blocks), n_sampled, len(index), n_sampled - len(index),
                          histogram, reasons)


def replay_record(record: WitnessRecord, state: StateVector | None = None) -> float:
    """Recompute a witness margin from its recorded parameters.

    A state passed in enters through ``monogamy.enter``; a file-class
    record needs one.  A seeded record's state is drawn as a chunk of one
    from its ``state_seed``, an integer in [0, 2**64).  The record is checked
    by ``_require_claims``, and the state evaluated in the cell it returns, as
    in a campaign.
    """
    if record.mode == "scalar":
        return _scalar_margin(record.t, record.mu)
    if record.mode not in BOUNDS:
        raise ConfigError(f"cannot replay mode {record.mode!r}")
    cells = _require_claims(record.mode, None if state is not None else record.state_class, record.n_qubits,
                            (record.alpha,), (record.mu,))
    if state is None:
        seed = record.state_seed
        if not (is_int(seed) and 0 <= seed < 2**64):
            raise ConfigError(f"state_seed must be an integer in [0, 2**64), got {seed!r}")
        feats = _DRAWS[record.state_class](record.n_qubits, np.array([seed], dtype=np.uint64))
    else:
        feats = enter(state, record.mode)
    keep, block, _ = _evaluate(record.mode, feats, cells)
    if not keep.size:
        raise PreconditionError("recorded state no longer satisfies the hypothesis")
    return float(block[0, 0, 2])


def falpha_table(alphas, points: int = 101):
    """Rows (x, f_alpha(x) per order) on a uniform grid of [0, 1]."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ConfigError("need at least one alpha")
    if not is_int(points) or points < 2:
        raise ConfigError(f"need an integer count of at least 2 grid points, got {points!r}")
    xs = np.linspace(0.0, 1.0, points)
    header = ("x",) + tuple(f"f_alpha={fmt12(a)}" for a in alphas)
    rows = [(float(x),) + tuple(measures.f_alpha(float(x), a) for a in alphas) for x in xs]
    return header, rows
