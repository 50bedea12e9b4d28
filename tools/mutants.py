"""The standing mutant list: small breaks of ``src/monoq`` that named tests must catch.

Run from anywhere as ``python3 tools/mutants.py``; it takes no options.  Each
entry of ``MUTANTS`` names a file under ``src``, an exact old text that occurs
once in it, the new text and the tests expected to fail.  The tool first runs
every named test on an unchanged copy of ``src``, which must pass.  Then, one
mutant at a time, it copies ``src`` to a temporary directory, applies the
mutant there and runs only that mutant's tests with ``PYTHONPATH`` on the copy.
A mutant is caught when pytest reports failed tests (exit 1).  The tool prints
one line per mutant and exits 1 if any survives, does not apply or errs.

It is not part of the test suite, since each mutant costs a pytest run;
``tests/test_mutants.py`` checks only that every old text occurs once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids relative to the repository root


_LEMMA1_LADDER = (
    "tests/test_monogamy.py::TestLemma1::test_ladder_is_the_scalar_lemma_at_half_the_power",
    "tests/test_monogamy.py::TestLemma1::test_campaign_rhs_is_the_sorted_pair_ladder",
)

MUTANTS = (
    Mutant("lemma1 base taken at x, not x / 2", "src/monoq/monogamy.py",
           "lambda x: ladder_base(x / 2)", "lambda x: ladder_base(x)", _LEMMA1_LADDER),
    Mutant("the paper's base bound to lemma1", "src/monoq/monogamy.py",
           "base=lambda x: ladder_base(x / 2)", "base=ladder_base", _LEMMA1_LADDER),
    Mutant("lemma1 pairs left unsorted", "src/monoq/monogamy.py",
           "return cut_concurrences(cut_probs), np.sort(pairs, axis=-1)[:, ::-1]",
           "return cut_concurrences(cut_probs), pairs",
           ("tests/test_monogamy.py::TestLemma1::test_campaign_rhs_is_the_sorted_pair_ladder",
            "tests/test_monogamy.py::TestLemma1::test_partner_swap_is_automatic")),
    Mutant("splits None read as split 1", "src/monoq/monogamy.py",
           "splits = np.full(b, k - 1) if splits is None else splits",
           "splits = np.full(b, 1) if splits is None else splits",
           ("tests/test_monogamy.py::TestLadderColumns::test_no_splits_is_the_full_ladder",)),
    Mutant("tails summed from the first later partner (np.sum), not as a running sum from the last",
           "src/monoq/monogamy.py",
           "tails = np.sqrt(np.cumsum(later * later, axis=1))[:, ::-1]",
           "tails = np.sqrt(np.stack([np.sum(ordered[:, i:] ** 2, axis=1) for i in range(1, n - 1)], axis=1))",
           ("tests/test_monogamy.py::TestOrderingStack",)),
    Mutant("profile_report without its equality check", "src/monoq/monogamy.py",
           "        if own == profile:\n", "        if True:\n",
           ("tests/test_monogamy.py::TestTheoremBound::test_pair_terms_come_from_the_profile",
            "tests/test_polygamy.py::test_bounds_reject_a_profile_of_another_state")),
    Mutant("the 2x2 eigenvalue gap as sqrt(F^2 - 4 D^2)", "src/monoq/measures.py",
           "gap = np.sqrt((aa - dd) ** 2 + 4.0 * _abs2(a.conj() * b + b.conj() * d))",
           "gap = np.sqrt(np.maximum((aa + 2.0 * _abs2(b) + dd) ** 2 - 4.0 * _abs2(a * d - b * b), 0.0))",
           ("tests/test_pair_lambdas.py::test_closed_form_equal_singular_values",)),
    Mutant("the roof search folds through a for loop variable", "src/monoq/measures.py",
           "    least = map(lambda phi: float(np.min(_decomposition_average(phi, alpha))),\n"
           "                _decompositions(basis, budget, max(rank, 3), rng))\n"
           "    return min(best, *least)",
           "    for phi in _decompositions(basis, budget, max(rank, 3), rng):\n"
           "        best = min(best, float(np.min(_decomposition_average(phi, alpha))))\n"
           "    return best",
           ("tests/test_measures.py::TestConvexRoofOracle::test_no_decomposition_block_outlives_its_fold",)),
    Mutant("the 2x2 l2 = D / l1 unguarded at l1 = 0", "src/monoq/measures.py",
           "l2 = np.divide(np.abs(a * d - b * b), l1, out=np.zeros_like(l1), where=l1 > 0.0)",
           "l2 = np.abs(a * d - b * b) / l1",
           ("tests/test_pair_lambdas.py::test_closed_form_of_zero_matrices_takes_no_division",)),
    Mutant("the smallest admissible split, not the largest", "src/monoq/monogamy.py",
           "last = np.argmax(admissible[:, ::-1], axis=1)\n"
           "        split = np.where(admissible.any(axis=1), n - 2 - last, 0)",
           "first = np.argmax(admissible, axis=1)\n"
           "        split = np.where(admissible.any(axis=1), first + 1, 0)",
           ("tests/test_monogamy.py::TestOrderingStack",)),
    Mutant("lemma1_check checks x after the qubit count", "src/monoq/monogamy.py",
           "    cells = bound.cells(alphas, mus)\n    feats = enter(psi, mode)\n",
           "    feats = enter(psi, mode)\n    cells = bound.cells(alphas, mus)\n",
           ("tests/test_monogamy.py::TestLemma1::test_power_below_two_rejected",)),
    Mutant("profile_report without its partner check", "src/monoq/monogamy.py",
           "    if sorted(profile.party_order) == sorted(partners):", "    if True:",
           ("tests/test_polygamy.py::test_bounds_reject_a_profile_of_another_state",)),
    Mutant("the CSV writer takes a template before its fields", "src/monoq/harness.py",
           "for line, template in zip(fields, templates)", "for template, line in zip(templates, fields)",
           ("tests/test_harness.py::TestCampaigns::test_witness_csv_is_converted_a_chunk_at_a_time",)),
    Mutant("W-class draws skip the mode's state rule", "src/monoq/harness.py",
           'if bound.needs_wclass(n_qubits) and state_class != "wclass":',
           'if state_class != "wclass" and bound.needs_wclass(n_qubits):',
           ("tests/test_harness.py::TestConfig::test_impossible_lemma1_campaign_rejected_before_any_draw",)),
    Mutant("a trial count need not be an integer", "src/monoq/measures.py",
           "valid = operator.index(n_trials) >= 1", "valid = n_trials >= 1",
           ("tests/test_measures.py::TestConvexRoofOracle::test_trial_count_must_be_a_positive_integer",)),
    Mutant("the CoA search keeps only the last block's best", "src/monoq/measures.py",
           "return max(0.0, *most)", "return max(0.0, list(most)[-1])",
           ("tests/test_measures.py::TestConvexRoofOracle::test_values_do_not_depend_on_the_block_size",)),
    Mutant("a polish rung below POLISH_XTOL counts", "src/monoq/measures.py",
           "better = (least < val[:, None]) & (steps >= POLISH_XTOL)", "better = least < val[:, None]",
           ("tests/test_measures.py::TestRungLadderPolish",)),
    Mutant("the polish takes the best rung, not the first", "src/monoq/measures.py",
           "cell = cells + better.argmax(axis=1)", "cell = cells + np.where(better, least, np.inf).argmin(axis=1)",
           ("tests/test_measures.py::TestRungLadderPolish",)),
    Mutant("the polish skips the clip of u to [0, 1]", "src/monoq/measures.py",
           "poll_u = np.minimum(np.maximum(x_u[:, None, None] + moves[..., 0], 0.0), 1.0).ravel()",
           "poll_u = (x_u[:, None, None] + moves[..., 0]).ravel()",
           ("tests/test_measures.py::TestRungLadderPolish::test_polls_clipped_at_the_poles",)),
    Mutant("the polish doubles h, not the winning rung's step", "src/monoq/measures.py",
           "h = np.where(won, 2.0 * steps.ravel()[cell], 0.5 * steps[:, -1])",
           "h = np.where(won, 2.0 * h, 0.5 * steps[:, -1])",
           ("tests/test_measures.py::TestRungLadderPolish",)),
    Mutant("a dropped limb carry", "src/monoq/core.py",
           "    state_hi = product_hi + inc_hi + (state_lo < inc_lo)\n", "    state_hi = product_hi + inc_hi\n",
           ("tests/test_seed_streams.py::test_pcg64_limbs_match_numpy_at_boundaries_and_carries",)),
    Mutant("a swapped complex-product operand order", "src/monoq/measures.py",
           "terms += mix * basis[::-1, :, None]", "terms += basis[::-1, :, None] * mix",
           ("tests/test_measures.py::TestConvexRoofOracle::test_pinned_values",)),
    Mutant("a config file's decode error escapes", "src/monoq/harness.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except OSError as exc:",
           ("tests/test_cli.py::TestFuzz::test_config_file_that_is_not_utf8_exits_2",)),
    Mutant("scalar campaigns take a state file", "src/monoq/harness.py",
           "if self.state_file is not None and bound is None:", "if False:",
           ("tests/test_harness.py::TestConfig::test_scalar_campaign_refuses_a_state_file",)),
    Mutant("a state file's qubit count truncated", "src/monoq/core.py",
           '        n = data["n_qubits"]\n', '        n = int(data["n_qubits"])\n',
           ("tests/test_core.py::TestStateFiles::test_rejects_qubit_count_that_is_not_an_integer",)),
    Mutant("a ladder entry's cells skip require_cell", "src/monoq/monogamy.py",
           "checked = [require_cell(AlphaMu(alpha, mu)) for alpha in alphas for mu in mus]",
           "checked = [AlphaMu(alpha, mu) for alpha in alphas for mu in mus]",
           ("tests/test_monogamy.py::TestBoundCells",)),
    Mutant("the split histogram with full and none swapped", "src/monoq/harness.py",
           'histogram = {"full": full, **{str(m): c for m, c in enumerate(splits, start=1)}, "none": none}',
           'histogram = {"full": none, **{str(m): c for m, c in enumerate(splits, start=1)}, "none": full}',
           ("tests/test_harness.py::TestSkipReasons::test_counts_match_profiles",)),
    Mutant("build_config parses typed values again", "src/monoq/harness.py",
           "        if isinstance(value, str):\n            try:\n                value = parse(value)",
           "        if value is not None:\n            try:\n                value = parse(value)",
           ("tests/test_harness.py::TestConfig::test_typed_settings_are_not_parsed_again",)),
    Mutant("require_power without its type check", "src/monoq/measures.py",
           "    if not is_real(mu):\n", "    if False:\n",
           ("tests/test_monogamy.py::TestWeightLadder::test_a_power_that_is_no_number_is_refused",
            "tests/test_harness.py::TestReplay::test_a_missing_number_is_refused")),
    Mutant("build_config leaves the seed's text unparsed", "src/monoq/harness.py",
           "        if isinstance(value, str):\n            try:",
           '        if isinstance(value, str) and key != "seed":\n            try:',
           ("tests/test_cli.py::TestFuzz::test_env_seed_default",
            "tests/test_cli.py::TestFuzz::test_env_seed_is_read_only_without_a_seed",
            "tests/test_cli.py::TestFuzz::test_flag_text_that_does_not_parse_exits_2")),
    Mutant("CampaignConfig skips the mu_grid validator", "src/monoq/harness.py",
           '("mu_grid", measures.require_power)', '("mu_grid", lambda mu: None)',
           ("tests/test_cli.py::TestFuzz::test_negative_power_exits_2",
            "tests/test_harness.py::TestConfig::test_power_cap")),
    Mutant("the MONOQ_SEED default dropped", "src/monoq/cli.py",
           '    settings.setdefault("seed", os.environ.get("MONOQ_SEED"))\n', "",
           ("tests/test_cli.py::TestFuzz::test_env_seed_default",
            "tests/test_cli.py::TestFuzz::test_env_seed_is_parsed_like_the_flag")),
    Mutant("falpha_table skips its order check", "src/monoq/harness.py",
           "    for alpha in alphas:\n        measures._require_alpha(alpha)\n", "",
           ("tests/test_harness.py::TestHelpers::test_falpha_table_orders_are_checked",)),
)


def mutated(mutant: Mutant) -> str:
    """The text of the mutant's file with the mutant applied; ValueError unless the old text occurs once."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def run_tests(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit code for ``tests`` on a temporary copy of ``src``, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (Path(tmp) / mutant.path).write_text(mutated(mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main() -> int:
    every = sorted({test for mutant in MUTANTS for test in mutant.tests})
    if run_tests(every) != 0:
        print("the named tests fail on the unchanged source; no mutant was run")
        return 1
    failures = 0
    for mutant in MUTANTS:
        try:
            code = run_tests(mutant.tests, mutant)
        except ValueError as exc:
            verdict = f"not applied: {exc}"
        else:
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"pytest exit {code}")
        failures += verdict != "caught"
        print(f"{verdict:>10}  {mutant.name}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
