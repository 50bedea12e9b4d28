"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.

The six-decimal reference values for the worked examples are quoted at order
alpha = 0.823 (the rounded lower window endpoint); at the exact endpoint
(sqrt(7)-1)/2 they shift by about 5e-5, far beyond the 1e-6 gate, so the
golden checks pin alpha = 0.823.

Criterion 6 documents a genuine negative result: the ladder-weighted
monogamy lower bound is violated on a measurable fraction of ordered states
(the uniform W state is the cleanest witness), so its validity clause fails
honestly here.  The tightness clause and every other criterion pass.
"""

import time

import numpy as np

from monoq import (
    CampaignConfig,
    coa_search,
    coa_two_qubit,
    convex_roof_oracle,
    f_alpha,
    lemma1_check,
    partial_trace,
    pure_to_density,
    random_mixed_state,
    renyi_entanglement_pure,
    renyi_entanglement_two_qubit,
    run_campaign,
    w_state,
    wclass_from_state,
)
from monoq.harness import REFERENCE_ALPHA, figure_rows, reference_schmidt_state
from monoq.polygamy import reoa_cut

GOLDEN_ATOL = 1e-6


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_worked_example_pair_and_cut_values():
    start = time.perf_counter()
    psi = reference_schmidt_state()
    rho = pure_to_density(psi)
    e_ab = renyi_entanglement_two_qubit(partial_trace(rho, {"A", "B1"}), REFERENCE_ALPHA)
    e_ac = renyi_entanglement_two_qubit(partial_trace(rho, {"A", "B2"}), REFERENCE_ALPHA)
    e_cut = renyi_entanglement_pure(psi, {"A"}, REFERENCE_ALPHA)
    elapsed = time.perf_counter() - start
    ok = (
        abs(e_ab - 0.318620) < GOLDEN_ATOL
        and abs(e_ac - 0.318620) < GOLDEN_ATOL
        and abs(e_cut - 0.654205) < GOLDEN_ATOL
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (Schmidt example golden values)",
        ok,
        f"E(A|B)={e_ab:.6f} E(A|C)={e_ac:.6f} E(A|BC)={e_cut:.6f} in {elapsed:.2f}s",
    )


def test_criterion_02_w_state_assisted_values():
    start = time.perf_counter()
    psi = w_state()
    w = wclass_from_state(psi)
    ea_pairs = [f_alpha(w.pair_concurrence(i) ** 2, REFERENCE_ALPHA) for i in (1, 2)]
    ea_cut = reoa_cut(psi, REFERENCE_ALPHA)
    elapsed = time.perf_counter() - start
    ok = (
        all(abs(v - 0.607218) < GOLDEN_ATOL for v in ea_pairs)
        and abs(ea_cut - 0.932108) < GOLDEN_ATOL
        and elapsed < 1.0
    )
    _report(
        "criterion 2 (W state assisted golden values)",
        ok,
        f"Ea(A|B)={ea_pairs[0]:.6f} Ea(A|C)={ea_pairs[1]:.6f} Ea(A|BC)={ea_cut:.6f} in {elapsed:.2f}s",
    )


def test_criterion_03_figure_reproduction():
    _, rows1 = figure_rows("fig1")
    e_pair = np.sqrt(rows1[0][3] / 2.0)  # prior at mu=2 is twice the squared pair value
    ordered1 = all(lhs >= ours >= prior for _, lhs, ours, prior in rows1)
    closed = max(
        abs((ours - prior) - (2.0**mu - 2.0) * e_pair**mu) for mu, _, ours, prior in rows1
    )
    _, rows2 = figure_rows("fig2")
    ordered2 = all(
        lhs <= ours + 1e-12 and ours <= prior + 1e-12 for mu, lhs, ours, prior in rows2 if mu > 0
    )
    ok = ordered1 and closed < 1e-9 and ordered2
    _report(
        "criterion 3 (figure curves)",
        ok,
        f"fig1 ordered={ordered1} closed-form dev={closed:.2e} fig2 ordered={ordered2}",
    )


def test_criterion_04_ckw_suite():
    start = time.perf_counter()
    result = run_campaign(
        CampaignConfig(mode="ckw", n_states=10_000, n_qubits=3, seed=401, tolerance=1e-10)
    )
    elapsed = time.perf_counter() - start
    ok = result.n_violations == 0 and result.min_margin >= -1e-10 and elapsed < 30.0
    _report(
        "criterion 4 (squared-concurrence monogamy, 1e4 states)",
        ok,
        f"min margin={result.min_margin:.3e} violations={result.n_violations} in {elapsed:.1f}s",
    )


def test_criterion_05_lemma1_suite():
    result = run_campaign(
        CampaignConfig(
            mode="lemma1", n_states=10_000, n_qubits=3, seed=401,
            mu_grid=(2.0, 3.0, 4.0), tolerance=1e-10,
        )
    )
    w_report = lemma1_check(w_state(), 2.0)
    ok = (
        result.n_violations == 0
        and result.min_margin >= -1e-10
        and abs(w_report.margin) < 1e-9
    )
    _report(
        "criterion 5 (weighted concurrence-power inequality)",
        ok,
        f"min margin={result.min_margin:.3e} W-state equality gap={w_report.margin:.2e}",
    )


def test_criterion_06_weighted_monogamy_suite():
    alpha_grid = (0.8229, 1.3027)
    mu_grid = (2.0, 3.0, 5.0)
    runs = [
        run_campaign(
            CampaignConfig(
                mode="monogamy", n_states=1000, n_qubits=3, seed=601,
                alpha_grid=alpha_grid, mu_grid=mu_grid,
            )
        ),
        run_campaign(
            CampaignConfig(
                mode="monogamy", n_states=500, n_qubits=4, seed=602,
                state_class="wclass", alpha_grid=alpha_grid, mu_grid=mu_grid,
            )
        ),
        run_campaign(
            CampaignConfig(
                mode="monogamy", n_states=500, n_qubits=5, seed=603,
                state_class="wclass", alpha_grid=alpha_grid, mu_grid=mu_grid,
            )
        ),
    ]
    tightness_ok = all(r.rhs >= r.baseline_rhs - 1e-12 for run in runs for r in run.records)
    n_satisfied = sum(run.n_satisfied for run in runs)
    n_violations = sum(run.n_violations for run in runs)
    min_margin = min(run.min_margin for run in runs)
    worst = min((run.worst for run in runs), key=lambda r: r.margin)
    validity_ok = min_margin >= -1e-9
    _report(
        "criterion 6 (ladder-weighted monogamy bound)",
        tightness_ok and validity_ok,
        f"hypothesis-satisfied states={n_satisfied}, rhs>=unweighted-baseline={tightness_ok}, "
        f"violations={n_violations}, min margin={min_margin:.3e}, worst witness: "
        f"class={worst.state_class} qubits={worst.n_qubits} seed={worst.state_seed} "
        f"alpha={worst.alpha} mu={worst.mu}",
    )


def test_criterion_07_weighted_polygamy_suite():
    alpha_grid = (0.8229, 1.3027)
    mu_grid = (0.25, 0.5, 0.75, 1.0)
    runs = [
        run_campaign(
            CampaignConfig(
                mode="polygamy", n_states=n, n_qubits=q, seed=700 + q,
                state_class="wclass", alpha_grid=alpha_grid, mu_grid=mu_grid,
            )
        )
        for q, n in ((3, 334), (4, 333), (5, 333))
    ]
    weighted_below_baseline = all(
        r.rhs <= r.baseline_rhs + 1e-12 for run in runs for r in run.records
    )
    n_satisfied = sum(run.n_satisfied for run in runs)
    n_violations = sum(run.n_violations for run in runs)
    min_margin = min(run.min_margin for run in runs)
    ok = weighted_below_baseline and min_margin >= -1e-9 and n_violations == 0
    _report(
        "criterion 7 (ladder-weighted polygamy bound)",
        ok,
        f"hypothesis-satisfied states={n_satisfied}, min margin={min_margin:.3e}, "
        f"violations={n_violations}, rhs<=unweighted-baseline={weighted_below_baseline}",
    )


def test_criterion_08_scalar_lemma_grid():
    lower = run_campaign(
        CampaignConfig(
            mode="scalar", n_states=1, mu_grid=tuple(np.linspace(1.0, 6.0, 50)),
            tolerance=1e-12,
        )
    )
    upper = run_campaign(
        CampaignConfig(
            mode="scalar", n_states=1, mu_grid=tuple(np.linspace(0.0, 1.0, 50)),
            tolerance=1e-12,
        )
    )
    ok = lower.n_violations == 0 and upper.n_violations == 0
    _report(
        "criterion 8 (scalar weight inequality grid)",
        ok,
        f"oriented min margins: x>=1 {lower.min_margin:.2e}, x<=1 {upper.min_margin:.2e}",
    )


def test_criterion_09_f_alpha_properties():
    alphas = np.linspace(0.8229, 1.3027, 5)
    xs = np.linspace(0.0, 1.0, 1001)
    grid = np.linspace(0.0, 1.0, 200)
    xx, yy = np.meshgrid(grid, grid)
    mask = xx**2 + yy**2 <= 1.0
    x2, y2 = xx[mask] ** 2, yy[mask] ** 2
    worst_mono = 0.0
    worst_sub = -np.inf
    for alpha in alphas:
        vals = f_alpha(xs, alpha)
        worst_mono = min(worst_mono, float(np.min(np.diff(vals))))
        gap = f_alpha(x2 + y2, alpha) - f_alpha(x2, alpha) - f_alpha(y2, alpha)
        worst_sub = max(worst_sub, float(np.max(gap)))
    ok = worst_mono >= -1e-12 and worst_sub <= 1e-12
    _report(
        "criterion 9 (spectral function properties)",
        ok,
        f"min forward difference={worst_mono:.2e}, max subadditivity excess={worst_sub:.2e}",
    )


def test_criterion_10_oracle_agreement():
    alpha = REFERENCE_ALPHA
    worst_high = -np.inf
    worst_low = np.inf
    worst_coa = -np.inf
    coa_overshoot = -np.inf
    for k in range(100):
        rho = random_mixed_state(2, rank=2, seed=9000 + k)
        analytic = renyi_entanglement_two_qubit(rho, alpha)
        est = convex_roof_oracle(rho, alpha, n_trials=10_000, seed=k)
        worst_high = max(worst_high, est - analytic)
        worst_low = min(worst_low, est - analytic)
        coa_value = coa_two_qubit(rho)
        coa_est = coa_search(rho, n_trials=10_000, seed=k)
        worst_coa = max(worst_coa, coa_value - coa_est)
        coa_overshoot = max(coa_overshoot, coa_est - coa_value)
    ok = (
        worst_high <= 1e-3
        and worst_low >= -1e-9
        and worst_coa <= 1e-3
        and coa_overshoot <= 1e-9
    )
    _report(
        "criterion 10 (decomposition-search oracles)",
        ok,
        f"roof-oracle excess max={worst_high:.2e} min={worst_low:.2e}; "
        f"assisted search deficit max={worst_coa:.2e} overshoot={coa_overshoot:.2e}",
    )
