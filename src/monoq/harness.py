"""Campaign runner: reference states, figure data, and stochastic bound fuzzing.

Everything here is deterministic under a master seed.  Per-state seeds are
derived through ``numpy.random.SeedSequence([master_seed, index])``, so any
witness record can be replayed bit-for-bit from its own fields.  CSV output
prints floats with 12 significant digits and no locale dependence.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, load_state
from .errors import ConfigError, IoError, PreconditionError
from .measures import ALPHA_MAX, ALPHA_WINDOW, MU_MAX, AlphaMu, PureFeatures, renyi_entanglement_pure
from .monogamy import (
    ckw_reports,
    ladder_reports,
    lemma1_reports,
    ordering_profile,
    scalar_weight_inequality,
)
from .polygamy import reoa_cut
from .wclass import build_wclass, random_wclass, wclass_from_state
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
        psi = reference_schmidt_state()
        e_cut = renyi_entanglement_pure(psi, {"A"}, alpha)
        pairs = PureFeatures.of_state(psi).pair_concurrences[0]
        e_pairs = measures.f_alpha(pairs * pairs, alpha).tolist()
        mus = [2.0 + k / 20.0 for k in range(161)]
    elif figure == "fig2":
        psi = w_state(3)
        e_cut = reoa_cut(psi, alpha)
        coas = PureFeatures.of_state(psi).pair_coas[0]
        e_pairs = measures.f_alpha(coas * coas, alpha).tolist()
        mus = [k / 100.0 for k in range(101)]
    else:
        raise ConfigError(f"unknown figure {figure!r}; expected fig1 or fig2")
    rows = []
    for mu in mus:
        terms = [e**mu for e in e_pairs]
        ours = terms[0] + (2.0**mu - 1.0) * terms[1]
        rows.append((mu, e_cut**mu, ours, sum(terms)))
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
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "mu_grid", tuple(float(m) for m in self.mu_grid))
        if not all(map(math.isfinite, (self.tolerance, *self.alpha_grid, *self.mu_grid))):
            raise ConfigError(
                f"tolerance and grid values must be finite, got tolerance {self.tolerance}, "
                f"alpha {self.alpha_grid}, mu {self.mu_grid}"
            )
        if max(self.mu_grid) > MU_MAX:
            raise ConfigError(f"mu values must be at most {MU_MAX:g}, got {self.mu_grid}")
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

@dataclass(frozen=True)
class WitnessRecord:
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
        values = (getattr(self, field) for field in self.CSV_COLUMNS.values())
        return tuple(str(v) if isinstance(v, (int, str)) else fmt12(v) for v in values)


def derive_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def _sample_state(state_class: str, n_qubits: int, seed: int) -> StateVector:
    """The state of a campaign index, or of its replay."""
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


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate of a fuzzing run plus every evaluated witness."""

    config: CampaignConfig
    records: tuple[WitnessRecord, ...]
    n_sampled: int
    n_satisfied: int
    n_skipped: int

    @property
    def n_violations(self) -> int:
        tol = self.config.tolerance
        return sum(1 for r in self.records if not r.margin >= -tol)  # NaN counts

    @property
    def min_margin(self) -> float:
        return float("nan") if self.worst is None else self.worst.margin

    @property
    def mean_tightness_gain(self) -> float:
        gains = [abs(r.rhs - r.baseline_rhs) for r in self.records]
        return float(np.mean(gains)) if gains else float("nan")

    @property
    def worst(self) -> WitnessRecord | None:
        """First record of smallest margin; a NaN margin is smaller than any number."""
        return min(self.records, key=lambda r: (not math.isnan(r.margin), r.margin), default=None)

    def summary(self) -> dict:
        return {
            "mode": self.config.mode,
            "state_class": self.config.state_class,
            "n_qubits": self.config.n_qubits,
            "seed": self.config.seed,
            "tolerance": self.config.tolerance,
            "n_sampled": self.n_sampled,
            "n_hypothesis_satisfied": self.n_satisfied,
            "n_skipped": self.n_skipped,
            "n_records": len(self.records),
            "n_violations": self.n_violations,
            "min_margin": None if not self.records else self.min_margin,
            "mean_tightness_gain": None if not self.records else self.mean_tightness_gain,
            "worst": None if self.worst is None else vars(self.worst).copy(),
        }

    def write_records_csv(self, stream) -> None:
        stream.write(",".join(WitnessRecord.CSV_COLUMNS) + "\n")
        for record in self.records:
            stream.write(",".join(record.to_csv_row()) + "\n")


def _scalar_margin(t: float, x: float) -> float:
    """Scalar-inequality margin oriented so that >= -tol means its regime holds."""
    check = scalar_weight_inequality(t, x)
    return check.margin if check.regime == "lower" else -check.margin


def _scalar_campaign(config: CampaignConfig) -> CampaignResult:
    records = []
    ts = np.linspace(0.0, 1.0, 200)
    index = 0
    for x in config.mu_grid:
        for t in ts:
            rhs = 1.0 + (2.0**x - 1.0) * t**x
            records.append(
                WitnessRecord(
                    index=index,
                    mode="scalar",
                    state_class="grid",
                    n_qubits=0,
                    state_seed=0,
                    alpha=None,
                    mu=float(x),
                    t=float(t),
                    lhs=(1.0 + t) ** x,
                    rhs=rhs,
                    margin=_scalar_margin(float(t), float(x)),
                    baseline_rhs=rhs,
                )
            )
            index += 1
    return CampaignResult(config, tuple(records), len(records), len(records), 0)


# Per-mode evaluators (features, ordering profiles, alpha, mu) -> one
# BoundReport per state, shared by campaigns and replay so that a record and
# its replay cannot drift apart.  ``profiles`` holds what ``_prepare``
# returned per state.
_EVALUATORS = {
    "ckw": lambda feats, profiles, alpha, mu: ckw_reports(feats),
    "lemma1": lambda feats, profiles, alpha, mu: lemma1_reports(feats, mu),
    "monogamy": lambda feats, profiles, alpha, mu: ladder_reports(
        feats.cut_probs, profiles, AlphaMu(alpha, mu), upper=False
    ),
    "polygamy": lambda feats, profiles, alpha, mu: ladder_reports(
        feats.cut_probs, profiles, AlphaMu(alpha, mu), upper=True
    ),
}

# A feature batch holds at most this many amplitudes (1 MiB of complex
# numbers): 8192 three-qubit states, 64 ten-qubit states.
CHUNK_AMPLITUDES = 2**16


def _prepare(mode: str, labels, feats: PureFeatures) -> list:
    """Per state: its ordering profile, or None for ckw and lemma1, which have no hypothesis."""
    if mode in ("ckw", "lemma1"):
        return [None] * len(feats.cut_probs)
    return [
        ordering_profile(labels, pairs, cut)
        for pairs, cut in zip(feats.pair_concurrences.tolist(), feats.cut_concurrence.tolist())
    ]


def _evaluate(mode: str, states, cells) -> list:
    """Per state of ``states``: None if its hypothesis fails, else a report per cell.

    The states' features are computed once, from their stacked amplitudes,
    and every cell is evaluated on the states that pass, from those features.
    """
    feats = PureFeatures.of(np.stack([psi.amplitudes for psi in states]))
    profiles = _prepare(mode, states[0].labels, feats)
    keep = [i for i, p in enumerate(profiles) if p is None or p.satisfied]
    out = [None] * len(states)
    if keep:
        feats, passed = feats.take(keep), [profiles[i] for i in keep]
        per_cell = [_EVALUATORS[mode](feats, passed, alpha, mu) for alpha, mu in cells]
        for j, i in enumerate(keep):
            out[i] = [reports[j] for reports in per_cell]
    return out


def _cells(config: CampaignConfig) -> list[tuple[float | None, float | None]]:
    """The (alpha, mu) cells evaluated on every state of a campaign."""
    if config.mode == "ckw":
        return [(None, None)]
    if config.mode == "lemma1":
        return [(None, mu) for mu in config.mu_grid]
    return [(alpha, mu) for alpha in config.alpha_grid for mu in config.mu_grid]


def _sampled_chunks(config: CampaignConfig):
    """Lists of (index, seed, state) of at most CHUNK_AMPLITUDES amplitudes."""
    if config.state_class == "file":
        yield [(0, 0, _entering(config.mode, load_state(config.state_file)))]
        return
    chunk = []
    for index in range(config.n_states):
        seed = derive_seed(config.seed, index)
        psi = _sample_state(config.state_class, config.n_qubits, seed)
        chunk.append((index, seed, psi))
        if (len(chunk) + 1) * psi.amplitudes.size > CHUNK_AMPLITUDES:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


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

    cells = _cells(config)
    records: list[WitnessRecord] = []
    n_sampled = n_satisfied = 0
    for chunk in _sampled_chunks(config):
        n_sampled += len(chunk)
        evaluated = _evaluate(config.mode, [psi for _, _, psi in chunk], cells)
        for (index, seed, psi), reports in zip(chunk, evaluated):
            if reports is None:
                continue
            n_satisfied += 1
            for (alpha, mu), report in zip(cells, reports):
                records.append(
                    WitnessRecord(
                        index=index,
                        mode=config.mode,
                        state_class=config.state_class,
                        n_qubits=psi.n_qubits,
                        state_seed=seed,
                        alpha=alpha,
                        mu=mu,
                        lhs=report.lhs,
                        rhs=report.rhs,
                        margin=report.margin,
                        baseline_rhs=report.baseline_rhs,
                    )
                )
    return CampaignResult(config, tuple(records), n_sampled, n_satisfied, n_sampled - n_satisfied)


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
    cell = (record.alpha, record.mu)
    (reports,) = _evaluate(record.mode, [_entering(record.mode, state)], [cell])
    if reports is None:
        raise PreconditionError("recorded state no longer satisfies the hypothesis")
    return reports[0].margin


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
