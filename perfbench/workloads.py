"""The benchmark workloads: their operations and their output checks.

A round is a fixed list of operations.  Every operation goes through a public
entry point: ``monoq.cli.main`` with the arguments a user gives ``monoq
fuzz`` / ``monoq eval``, or the public oracle functions.  Round inputs derive
from (workload seed, operation index) only, so every round of a run repeats
the same inputs.  Checks compare the
outputs with ``reference`` (which does not import monoq) or with required
properties, never with stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import monoq
import monoq.cli
import monoq.measures
from monoq.harness import WitnessRecord, fmt12, replay_record

import reference as ref

MONO_ALPHA = "0.8229,1.3027"
MONO_MU = "2,3,5"
POLY_MU = "0.25,0.5,0.75,1"
EVAL_ALPHA = 0.823
ORACLE_TRIALS = 10_000

# Tolerances of the checks.
TANGLE_ATOL = 1e-9        # 3-qubit CKW / lemma1 (power 2) margin against the three-tangle
WIDE_ATOL = 1e-7          # textbook Wootters route at 8-10 qubits
CLOSED_FORM_ATOL = 1e-9   # W-class closed forms, W_3 eval, Renyi cut values
CSV_ATOL = 1e-9           # inequalities read back from 12-significant-digit CSV fields
ROOF_EXCESS = (-1e-9, 1e-3)
COA_OVERSHOOT = 1e-9
COA_DEFICIT = 1e-3


@dataclass(frozen=True)
class Op:
    """One call into a public entry point."""

    mode: str                      # ckw | lemma1 | monogamy | polygamy | eval | oracle
    states: int                    # states the call samples or evaluates
    argv: tuple = ()               # monoq CLI arguments; empty for oracle calls
    csv: str | None = None         # witness CSV written by the call
    probe: bool = False            # boundary probe: the correct outcome is exit 2
    matrix: np.ndarray | None = field(default=None, compare=False)
    seed: int = 0

    @property
    def label(self) -> str:
        """Mode and qubit count, e.g. ``ckw.q3``; used for the per-label rates."""
        if "--qubits" in self.argv:
            return f"{self.mode}.q{self.argv[self.argv.index('--qubits') + 1]}"
        return self.mode


@dataclass
class Outcome:
    op: Op
    seconds: float
    code: int | None = None        # exit code as a shell would see it
    stdout: str = ""
    error: str | None = None       # exception or argparse exit, if any
    value: dict | None = None      # oracle results

    @property
    def failed(self) -> bool:
        if self.op.probe:
            return self.code != 2
        return self.error is not None or self.code == 2


def op_seed(seed: int, op_index: int) -> int:
    return int(np.random.SeedSequence([seed, op_index]).generate_state(1)[0])


def _fuzz(mode, qubits, states, seed, out, *extra, csv_name=None):
    argv = ["fuzz", "--mode", mode, "--states", str(states), "--qubits", str(qubits),
            "--seed", str(seed), *extra]
    if csv_name:
        argv += ["--out", str(out / csv_name)]
    return Op(mode, states, tuple(argv), csv=csv_name)


# ---------------------------------------------------------------------------
# rounds: short operations (about 0.05-0.3 s each), so that each one's
# fastest time over a run is reached between bursts of host contention.
# Each label (mode and qubit count) takes about the same share of a round's
# time, so a slowdown of any one label moves ``states_per_s`` alike.
# ---------------------------------------------------------------------------

def _cell(seed, out, first, mode, qubits, states, copies, *extra):
    """``copies`` calls of one campaign cell, each with its own seed and CSV."""
    return [
        _fuzz(mode, qubits, states, op_seed(seed, first + c), out, *extra,
              csv_name=f"{mode}_q{qubits}_{'abc'[c]}.csv")
        for c in range(copies)
    ]


def haar3_ops(seed, out):
    return [
        *_cell(seed, out, 0, "ckw", 3, 250, 3, "--tolerance", "1e-10"),
        *_cell(seed, out, 3, "lemma1", 3, 100, 3, "--mu", "2,3,4", "--tolerance", "1e-10"),
        *_cell(seed, out, 6, "monogamy", 3, 45, 2, "--alpha", MONO_ALPHA, "--mu", MONO_MU),
        # Boundary probes on fixed inputs; both should exit 2 (input error).
        Op("ckw", 10, ("fuzz", "--mode", "ckw", "--states", "10", "--qubits", "3",
                       "--seed", "-1"), probe=True),
        Op("monogamy", 20, ("fuzz", "--mode", "monogamy", "--states", "20", "--qubits", "3",
                            "--mu", "nan", "--seed", "7"), probe=True),
    ]


def haar_wide_ops(seed, out):
    return [
        *_cell(seed, out, 10, "ckw", 8, 10, 2, "--tolerance", "1e-10"),
        *_cell(seed, out, 12, "ckw", 9, 2, 2, "--tolerance", "1e-10"),
        *_cell(seed, out, 14, "ckw", 10, 1, 1, "--tolerance", "1e-10"),
    ]


def wclass_ops(seed, out):
    wclass = ("--class", "wclass", "--alpha", MONO_ALPHA)
    cells = [("monogamy", MONO_MU, q, n) for q, n in ((3, 40), (5, 45), (7, 38))]
    cells += [("polygamy", POLY_MU, q, n) for q, n in ((4, 50), (6, 60), (8, 9))]
    ops = [
        op
        for k, (mode, mu, q, n) in enumerate(cells)
        for op in _cell(seed, out, 20 + 2 * k, mode, q, n, 2, *wclass, "--mu", mu)
    ]
    ops.append(Op("eval", 1, ("eval", str(out.parent / "w3.json"), "--alpha", str(EVAL_ALPHA),
                              "--mu", "2", "--out", str(out / "eval.json"))))
    return ops


def oracle_ops(seed, out):
    rng = np.random.default_rng(op_seed(seed, 40))
    return [
        Op("oracle", 1, matrix=ref.rank2_two_qubit(rng), seed=int(rng.integers(2**31)))
        for _ in range(2)
    ]


def write_w3(path: Path) -> None:
    """Uniform W_3 state file in the documented JSON format."""
    amp = 1.0 / math.sqrt(3.0)
    amps = [[0.0, 0.0]] * 8
    for index in (4, 2, 1):
        amps[index] = [amp, 0.0]
    path.write_text(json.dumps({"n_qubits": 3, "labels": ["A", "B1", "B2"], "amplitudes": amps}))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _run_cli(op: Op, clock) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = clock()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = monoq.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception:  # escapes main: the shell sees exit 1
            code, error = 1, traceback.format_exc(limit=2).strip().splitlines()[-1]
    seconds = clock() - start
    if code == 2 and error is None:
        error = err.getvalue().strip()
    return Outcome(op, seconds, code, out.getvalue(), error)


def _run_oracle(op: Op, clock) -> Outcome:
    m = monoq.measures
    start = clock()
    try:
        rho = monoq.DensityMatrix(op.matrix)
        value = {
            "roof": m.convex_roof_oracle(rho, EVAL_ALPHA, n_trials=ORACLE_TRIALS, seed=op.seed),
            "coa_search": m.coa_search(rho, n_trials=ORACLE_TRIALS, seed=op.seed),
            "analytic": m.renyi_entanglement_two_qubit(rho, EVAL_ALPHA),
            "coa": m.coa_two_qubit(rho),
        }
        error = None
    except Exception:
        value, error = None, traceback.format_exc(limit=2).strip().splitlines()[-1]
    return Outcome(op, clock() - start, value=value, error=error)


def run_op(op: Op, clock) -> Outcome:
    return _run_oracle(op, clock) if op.mode == "oracle" else _run_cli(op, clock)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rows(out: Path, op: Op) -> list[dict]:
    with open(out / op.csv, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _f(row, key) -> float:
    return float(row[key])


def _check_fuzz(o: Outcome, out: Path, problems: list, tag: str) -> tuple[dict, list]:
    """Checks every fuzz call shares; returns (summary, CSV rows)."""
    op = o.op
    summary = json.loads(o.stdout)
    rows = _rows(out, op) if op.csv else []
    if op.csv and len(rows) != summary["n_records"]:
        problems.append(f"{tag}: {len(rows)} CSV rows, n_records={summary['n_records']}")
    if summary["n_sampled"] != op.states:
        problems.append(f"{tag}: n_sampled={summary['n_sampled']}, asked for {op.states}")
    if o.code != (1 if summary["n_violations"] else 0):
        problems.append(f"{tag}: exit {o.code} with n_violations={summary['n_violations']}")
    bad = [r["index"] for r in rows if not math.isfinite(_f(r, "margin"))]
    if bad:
        problems.append(f"{tag}: non-finite margins at indices {bad[:5]}")
    return summary, rows


def _check_tangle(rows, problems, tag):
    """Margins (ckw, and lemma1 at power 2) equal the three-tangle; all are >= -1e-10."""
    seeds = sorted({int(r["state_seed"]) for r in rows})
    tangle = dict(zip(seeds, ref.three_tangle(np.array([ref.haar_state(3, s) for s in seeds]))))
    for r in rows:
        margin = _f(r, "margin")
        if margin < -1e-10:
            problems.append(f"{tag}: margin {margin} below -1e-10 (seed {r['state_seed']})")
        if r["mu"] in ("", "2"):
            gap = abs(margin - tangle[int(r["state_seed"])])
            if gap > TANGLE_ATOL:
                problems.append(f"{tag}: margin differs from the three-tangle by {gap:.2e}")


def _check_monogamy_rows(rows, problems, tag):
    for r in rows:
        lhs, rhs, base = _f(r, "lhs"), _f(r, "rhs"), _f(r, "baseline_rhs")
        if rhs < base - CSV_ATOL:
            problems.append(f"{tag}: weighted rhs {rhs} below baseline {base}")
        if lhs < base - CSV_ATOL:
            problems.append(f"{tag}: unweighted baseline violated, lhs {lhs} < {base}")


def _check_polygamy_rows(rows, summary, problems, tag):
    if summary["n_violations"]:
        problems.append(f"{tag}: {summary['n_violations']} polygamy violations")
    for r in rows:
        if _f(r, "rhs") > _f(r, "baseline_rhs") + CSV_ATOL:
            problems.append(f"{tag}: weighted rhs {r['rhs']} above baseline {r['baseline_rhs']}")


def _check_haar_cut(rows, problems, tag):
    """Monogamy lhs on 3-qubit Haar states equals the Renyi entropy of rho_A, to the mu."""
    spectra = {}
    for r in rows:
        seed = int(r["state_seed"])
        if seed not in spectra:
            spectra[seed] = ref.cut_spectrum(ref.haar_state(3, seed))
        expected = ref.renyi_entropy(spectra[seed], float(r["alpha"])) ** float(r["mu"])
        if abs(_f(r, "lhs") - expected) > CLOSED_FORM_ATOL:
            problems.append(f"{tag}: lhs {r['lhs']} vs Renyi cut value {expected!r}")


def _arg(op: Op, flag: str) -> int:
    return int(op.argv[op.argv.index(flag) + 1])


def _check_wclass_rows(rows, summary, op, problems, tag):
    """lhs and baseline against W-class closed forms; hypothesis count independently."""
    qubits, seed = _arg(op, "--qubits"), _arg(op, "--seed")
    moduli = {}
    satisfied = set()
    for index in range(op.states):
        state_seed = ref.state_seed(seed, index)
        a, b = ref.wclass_moduli(qubits, state_seed)
        moduli[state_seed] = (a, b)
        if ref.wclass_satisfied(a, b):
            satisfied.add(index)
    if summary["n_hypothesis_satisfied"] != len(satisfied):
        problems.append(
            f"{tag}: {summary['n_hypothesis_satisfied']} states satisfy the hypothesis, "
            f"reference says {len(satisfied)}"
        )
    if {int(r["index"]) for r in rows} != satisfied:
        problems.append(f"{tag}: record indices differ from the hypothesis-satisfying states")
    for r in rows:
        a, b = moduli[int(r["state_seed"])]
        alpha, mu = float(r["alpha"]), float(r["mu"])
        lhs = ref.wclass_cut(a, alpha) ** mu
        base = sum(ref.wclass_pair(a, x, alpha) ** mu for x in b)
        if abs(_f(r, "lhs") - lhs) > CLOSED_FORM_ATOL or abs(_f(r, "baseline_rhs") - base) > CLOSED_FORM_ATOL:
            problems.append(f"{tag}: lhs/baseline {r['lhs']}/{r['baseline_rhs']} vs closed forms {lhs!r}/{base!r}")


def _check_eval(out: Path, problems):
    result = json.loads((out / "eval.json").read_text())
    report = result["report"]
    if report is None:
        problems.append(f"eval W_3: no report ({result.get('skipped')})")
        return
    a = 1.0 / math.sqrt(3.0)
    lhs = ref.wclass_cut(a, EVAL_ALPHA) ** 2
    rhs = 4.0 * ref.wclass_pair(a, a, EVAL_ALPHA) ** 2
    if abs(report["lhs"] - lhs) > CLOSED_FORM_ATOL or abs(report["rhs"] - rhs) > CLOSED_FORM_ATOL:
        problems.append(f"eval W_3: lhs/rhs {report['lhs']}/{report['rhs']} vs {lhs!r}/{rhs!r}")
    if not (abs(lhs - 0.868825) < 1e-6 and abs(rhs - 1.474853) < 1e-6 and report["margin"] < 0):
        problems.append(f"eval W_3: expected lhs 0.868825, rhs 1.474853, negative margin; got {report}")


def _check_oracle(o: Outcome, problems):
    v = o.value
    excess = v["roof"] - v["analytic"]
    if not ROOF_EXCESS[0] <= excess <= ROOF_EXCESS[1]:
        problems.append(f"oracle seed {o.op.seed}: roof-oracle excess {excess:.3e} outside {ROOF_EXCESS}")
    if v["coa_search"] - v["coa"] > COA_OVERSHOOT:
        problems.append(f"oracle seed {o.op.seed}: CoA search overshoots by {v['coa_search'] - v['coa']:.3e}")
    if v["coa"] - v["coa_search"] > COA_DEFICIT:
        problems.append(f"oracle seed {o.op.seed}: CoA search deficit {v['coa'] - v['coa_search']:.3e}")
    c = ref.concurrence(o.op.matrix)
    analytic = ref.f_alpha(c * c, EVAL_ALPHA)
    coa = ref.concurrence_of_assistance(o.op.matrix)
    if abs(v["analytic"] - analytic) > WIDE_ATOL or abs(v["coa"] - coa) > WIDE_ATOL:
        problems.append(
            f"oracle seed {o.op.seed}: analytic/CoA {v['analytic']}/{v['coa']} "
            f"vs textbook {analytic!r}/{coa!r}"
        )


def _check_replay(summary, rows, problems, tag):
    """The worst record replays bit-for-bit; CSV samples replay to all 12 printed digits."""
    worst = summary["worst"]
    if worst is not None:
        margin = replay_record(WitnessRecord(**worst))
        if margin != worst["margin"]:
            problems.append(f"{tag}: worst record replays to {margin!r}, recorded {worst['margin']!r}")
    for r in rows[:1] + rows[-1:]:
        record = WitnessRecord(
            index=int(r["index"]), mode=r["mode"], state_class=r["class"],
            n_qubits=int(r["qubits"]), state_seed=int(r["state_seed"]),
            alpha=float(r["alpha"]) if r["alpha"] else None,
            mu=float(r["mu"]) if r["mu"] else None,
            lhs=_f(r, "lhs"), rhs=_f(r, "rhs"), margin=_f(r, "margin"),
            baseline_rhs=_f(r, "baseline_rhs"),
        )
        if fmt12(replay_record(record)) != r["margin"]:
            problems.append(f"{tag}: CSV record {r['index']} does not replay to {r['margin']}")


def _check_wide(rows, qubits, problems, tag):
    """lhs and sum of pair C^2 against the textbook route on every record."""
    for k, r in enumerate(rows):
        psi = ref.haar_state(qubits, int(r["state_seed"]))
        pairs = [ref.concurrence(ref.pair_marginal(psi, 0, j)) for j in range(1, qubits)]
        lhs, rhs = ref.cut_concurrence_sq(psi), sum(c * c for c in pairs)
        if abs(_f(r, "lhs") - lhs) > WIDE_ATOL or abs(_f(r, "rhs") - rhs) > WIDE_ATOL:
            problems.append(f"{tag}: lhs/rhs {r['lhs']}/{r['rhs']} vs textbook {lhs!r}/{rhs!r}")
        if _f(r, "margin") < -1e-10:
            problems.append(f"{tag}: margin {r['margin']} below -1e-10")
        if k == 0:  # pair by pair against the program's own report
            report = monoq.ckw_check(monoq.haar_random_state(qubits, int(r["state_seed"])))
            got = [math.sqrt(t) for _, t in report.rhs_terms]
            gap = max(abs(x - y) for x, y in zip(got, pairs))
            if gap > WIDE_ATOL:
                problems.append(f"{tag}: pair concurrences differ from textbook by {gap:.2e}")


def check_round(workload: str, outcomes: list[Outcome], out: Path) -> list[str]:
    """Problems found in one round's outputs."""
    problems: list[str] = []
    for o in outcomes:
        op = o.op
        if o.failed or op.probe:
            continue
        if op.mode == "oracle":
            _check_oracle(o, problems)
            continue
        if op.mode == "eval":
            if o.code != 0:
                problems.append(f"eval exited {o.code}")
            else:
                _check_eval(out, problems)
            continue
        qubits = _arg(op, "--qubits")
        tag = f"{workload} {op.mode} qubits={qubits}"
        summary, rows = _check_fuzz(o, out, problems, tag)
        if op.mode == "ckw" and qubits > 3:
            _check_wide(rows, qubits, problems, tag)
        elif op.mode in ("ckw", "lemma1"):
            _check_tangle(rows, problems, tag)
        elif op.mode == "monogamy":
            _check_monogamy_rows(rows, problems, tag)
        else:
            _check_polygamy_rows(rows, summary, problems, tag)
        if "wclass" in op.argv:
            _check_wclass_rows(rows, summary, op, problems, tag)
        elif op.mode == "monogamy":
            _check_haar_cut(rows, problems, tag)
        _check_replay(summary, rows, problems, tag)
    return problems


def fingerprint(outcomes: list[Outcome], out: Path) -> list:
    """Everything a round outputs; rounds on the same inputs must match exactly."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return [(o.code, o.stdout, o.error, o.value) for o in outcomes] + [files]


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple  # functions (seed, output dir) -> list[Op]

    def round_ops(self, seed: int, out: Path) -> list[Op]:
        return [op for part in self.parts for op in part(seed, out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("haar-campaigns", (haar3_ops, haar_wide_ops)),
        Workload("wclass-oracle", (wclass_ops, oracle_ops)),
    )
}
