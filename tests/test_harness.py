import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoq import (
    ALPHA_WINDOW,
    AlphaMu,
    BoundReport,
    CampaignConfig,
    CampaignResult,
    ConfigError,
    StateVector,
    WClassState,
    WitnessRecord,
    build_config,
    build_wclass,
    detect_ordering,
    figure_csv,
    figure_rows,
    haar_random_state,
    load_state,
    random_wclass,
    reference_schmidt_state,
    replay_record,
    run_campaign,
    save_state,
    theorem3_bound,
    theorem_bound,
    w_state,
)
from monoq import harness, monogamy
from monoq.harness import (
    MODES,
    REFERENCE_ALPHA,
    derive_seeds,
    falpha_table,
    fmt12,
    parse_config_file,
)
from monoq.cli import main
from monoq.errors import MonoqError
from monoq.measures import ALPHA_MAX, MU_MAX, PureFeatures, f_alpha


class TestReferenceStates:
    def test_schmidt_state_normalized(self):
        psi = reference_schmidt_state()
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        assert psi.n_qubits == 3

    def test_w_state_sizes(self):
        for n in (3, 4, 5):
            psi = w_state(n)
            assert psi.n_qubits == n
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


class TestFigureData:
    @pytest.mark.parametrize("figure", ["fig1", "fig2"])
    def test_prior_is_summed_left_to_right(self, figure):
        # sum() of floats compensates from Python 3.12 on; the column must not
        psi = reference_schmidt_state() if figure == "fig1" else w_state(3)
        feats = PureFeatures.of_state(psi)
        pairs = (feats.pair_concurrences if figure == "fig1" else feats.pair_coas)[0]
        e_pairs = f_alpha(pairs * pairs, REFERENCE_ALPHA).tolist()
        for mu, _, _, prior in figure_rows(figure)[1]:
            expected = 0.0
            for e in e_pairs:
                expected = expected + e**mu
            assert prior == expected

    def test_fig1_grid_and_ordering(self):
        header, rows = figure_rows("fig1")
        assert header == ("mu", "lhs", "ours", "prior")
        assert len(rows) == 161
        assert rows[0][0] == 2.0 and rows[-1][0] == 10.0
        for mu, lhs, ours, prior in rows:
            assert lhs >= ours >= prior > 0.0

    def test_fig1_closed_form_gap(self):
        # ours - prior must equal (2^mu - 2) E_pair^mu built from the same state
        header, rows = figure_rows("fig1")
        e_pair = rows[0][3] / 2.0  # prior at mu=2 is 2 E^2
        e_pair = np.sqrt(e_pair)
        for mu, lhs, ours, prior in rows:
            assert abs((ours - prior) - (2.0**mu - 2.0) * e_pair**mu) < 1e-9

    def test_fig1_first_row_squares(self):
        _, rows = figure_rows("fig1")
        mu, lhs, ours, prior = rows[0]
        assert lhs == pytest.approx(0.654205**2, abs=1e-5)
        assert ours == pytest.approx(4 * 0.318620**2, abs=1e-5)
        assert prior == pytest.approx(2 * 0.318620**2, abs=1e-5)

    def test_fig2_grid_and_ordering(self):
        header, rows = figure_rows("fig2")
        assert len(rows) == 101
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        for mu, lhs, ours, prior in rows[1:]:
            assert lhs <= ours + 1e-12
            assert ours <= prior + 1e-12

    def test_fig2_endpoint_rows(self):
        _, rows = figure_rows("fig2")
        assert rows[0] == (0.0, 1.0, 1.0, 2.0)
        mu, lhs, ours, prior = rows[-1]
        assert lhs == pytest.approx(0.932108, abs=1e-6)
        assert ours == pytest.approx(2 * 0.607218, abs=1e-5)
        assert abs(ours - prior) < 1e-12

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            figure_rows("fig3")

    @pytest.mark.parametrize("alpha", [REFERENCE_ALPHA, 1.0, 1.2])
    @pytest.mark.parametrize("figure", ["fig1", "fig2"])
    def test_rows_equal_the_public_bounds(self, figure, alpha):
        # every ladder route reads the mode's BOUNDS columns: a figure row is
        # the public bound's report on the figure's state, bit for bit
        psi, bound = (reference_schmidt_state(), theorem_bound) if figure == "fig1" else (w_state(3), theorem3_bound)
        profile = detect_ordering(psi)
        assert profile.split_index == "full"
        for mu, lhs, ours, prior in figure_rows(figure, alpha)[1]:
            report = bound(psi, profile, AlphaMu(alpha, mu))
            assert (lhs, ours, prior) == (report.lhs, report.rhs, report.baseline_rhs)

    def test_csv_determinism(self):
        assert figure_csv("fig1") == figure_csv("fig1")
        first = figure_csv("fig2").splitlines()
        assert first[0] == "mu,lhs,ours,prior"
        assert first[1] == "0,1,1,2"


class TestConfig:
    def test_defaults(self):
        config = build_config({"mode": "ckw"})
        assert config.n_states == 1000
        assert config.state_class == "haar"
        assert config.mu_grid == (2.0,)

    def test_mode_specific_defaults(self):
        assert build_config({"mode": "polygamy"}).state_class == "wclass"
        assert build_config({"mode": "lemma1"}).mu_grid == (2.0, 3.0, 4.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_mode_defaults_live_in_campaign_config(self, mode):
        assert CampaignConfig(mode=mode) == build_config({"mode": mode})

    def test_default_polygamy_config_runs(self):
        config = CampaignConfig(mode="polygamy", n_states=20, n_qubits=4, seed=5)
        assert config.state_class == "wclass"
        assert config.mu_grid == (0.25, 0.5, 0.75, 1.0)
        result = run_campaign(config)
        assert result.n_sampled == 20 and result.n_violations == 0

    def test_power_cap(self):
        CampaignConfig(mode="monogamy", mu_grid=(2.0, MU_MAX))
        for mode in ("monogamy", "lemma1", "scalar"):
            with pytest.raises(ConfigError, match="at most"):
                CampaignConfig(mode=mode, mu_grid=(2.0, MU_MAX + 1.0))

    def test_grid_parsing(self):
        config = build_config({"mode": "monogamy", "alpha": "0.8229,1.3027", "mu": "2,3,5"})
        assert config.alpha_grid == (0.8229, 1.3027)
        assert config.mu_grid == (2.0, 3.0, 5.0)

    def test_invalid_settings(self):
        with pytest.raises(ConfigError):
            build_config({"mode": "nope"})
        with pytest.raises(ConfigError):
            build_config({"mode": "ckw", "states": 0})
        with pytest.raises(ConfigError):
            build_config({"mode": "ckw", "tolerance": 0.0})
        with pytest.raises(ConfigError):
            build_config({})
        with pytest.raises(ConfigError):
            CampaignConfig(mode="monogamy", state_class="file")
        nan, inf = float("nan"), float("inf")
        for bad in ({"seed": -1}, {"tolerance": inf}, {"tolerance": nan}, {"mu": "2,nan"},
                    {"alpha": "inf"}, {"alpha": "0.9,-inf"}):
            with pytest.raises(ConfigError):
                build_config({"mode": "monogamy", **bad})

    @pytest.mark.parametrize(
        "field, value",
        [("n_states", 10.0), ("n_states", "10"), ("n_qubits", 3.0), ("n_qubits", True),
         ("seed", 5.0), ("seed", "5"), ("alpha_grid", ("0.9",)), ("mu_grid", (None,)),
         ("tolerance", "1e-9")],
    )
    def test_fields_of_the_wrong_type_are_refused(self, field, value):
        CampaignConfig(mode="monogamy", n_states=10, n_qubits=3, seed=5)
        with pytest.raises(ConfigError, match=field.removesuffix("_grid")):
            CampaignConfig(**{"mode": "monogamy", "n_states": 10, "n_qubits": 3, "seed": 5, field: value})

    def test_a_state_file_means_class_file(self, tmp_path, capsys):
        # with no class given, a state file runs a file campaign: one state,
        # whatever the state count says
        path = tmp_path / "w3.json"
        save_state(w_state(3), path)
        for state_file in (str(path), path):
            assert CampaignConfig(mode="ckw", n_states=5, state_file=state_file).state_class == "file"
        assert main(["fuzz", "--mode", "ckw", "--states", "5", "--state", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["state_class"], summary["n_sampled"], summary["n_qubits"]) == ("file", 1, 3)

    @pytest.mark.parametrize("state_class", ["haar", "wclass"])
    def test_a_seeded_class_with_a_state_file_is_refused(self, state_class, tmp_path, capsys):
        path = tmp_path / "w3.json"
        save_state(w_state(3), path)
        with pytest.raises(ConfigError, match=f"class 'file' only, got class '{state_class}'"):
            CampaignConfig(mode="monogamy", state_class=state_class, state_file=str(path))
        argv = ["fuzz", "--mode", "monogamy", "--class", state_class, "--state", str(path)]
        assert main(argv) == 2
        assert "class 'file' only" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3, 3.5, ("w3.json",)])
    def test_a_state_file_that_is_no_path_is_refused(self, value):
        # an int would be opened as a file descriptor
        for state_class in (None, "file"):
            with pytest.raises(ConfigError, match="state_file must be a str or os.PathLike path"):
                CampaignConfig(mode="ckw", state_class=state_class, state_file=value)

    def test_numpy_integers_are_stored_as_ints(self):
        config = CampaignConfig(mode="ckw", n_states=np.int64(4), n_qubits=np.int32(3), seed=np.uint8(5))
        assert (config.n_states, config.n_qubits, config.seed) == (4, 3, 5)
        assert all(type(v) is int for v in (config.n_states, config.n_qubits, config.seed))
        json.dumps(run_campaign(config).summary())

    def test_settings_table_covers_every_config_field(self):
        assert {field for field, _ in harness._SETTINGS.values()} == {
            f.name for f in dataclasses.fields(CampaignConfig)
        }

    @given(
        mode=st.sampled_from(MODES),
        tolerance=st.floats(),
        alpha=st.floats(),
        mu=st.floats(),
        seed=st.integers(),
    )
    def test_any_float_or_seed_resolves_or_raises_config_error(self, mode, tolerance, alpha, mu, seed):
        settings = {"mode": mode, "tolerance": tolerance, "alpha": (0.9, alpha), "mu": (mu,),
                    "seed": seed}
        try:
            config = build_config(settings)
        except ConfigError:
            return
        assert all(map(math.isfinite, (config.tolerance, *config.alpha_grid, *config.mu_grid)))
        assert all(0 < a <= ALPHA_MAX for a in config.alpha_grid)
        assert config.seed >= 0 and config.tolerance > 0

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "campaign.cfg"
        path.write_text("# demo\nmode=ckw\nstates=50\nqubits=3\nseed=5\ntolerance=1e-10\n")
        settings = parse_config_file(path)
        assert settings == {"mode": "ckw", "states": 50, "qubits": 3, "seed": 5, "tolerance": 1e-10}

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("modeckw\n")
        with pytest.raises(ConfigError):
            parse_config_file(bad)
        bad.write_text("unknown=1\n")
        with pytest.raises(ConfigError):
            parse_config_file(bad)
        bad.write_text("states=many\n")
        with pytest.raises(ConfigError):
            parse_config_file(bad)

    def test_polygamy_needs_wclass_states(self):
        # rejected when configured, not on the first sampled state
        with pytest.raises(ConfigError, match="W-class"):
            CampaignConfig(mode="polygamy", state_class="haar")

    def test_haar_monogamy_beyond_three_qubits_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(mode="monogamy", n_states=2, n_qubits=4, state_class="haar")

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr(harness, "_DRAWS", {"haar": no_draw, "wclass": no_draw})
        with pytest.raises(AssertionError, match="drawn"):  # the patch is live
            run_campaign(CampaignConfig(mode="lemma1", n_states=2, n_qubits=3))

    @pytest.mark.parametrize(
        "state_class, n_qubits, mu_grid",
        [("haar", 6, (2.0,)), ("haar", 2, (2.0, 3.0)), ("wclass", 4, (2.0,)), ("haar", 3, (1.5, 2.0))],
        ids=["haar-q6", "haar-q2", "wclass-q4", "mu-below-2"],
    )
    def test_impossible_lemma1_campaign_rejected_before_any_draw(
        self, state_class, n_qubits, mu_grid, no_draws
    ):
        with pytest.raises(ConfigError, match="lemma1"):
            CampaignConfig(mode="lemma1", n_states=2, n_qubits=n_qubits, mu_grid=mu_grid,
                           state_class=state_class)

    @pytest.mark.parametrize(
        "mode, state_class, n_qubits, alpha, mu",
        [("monogamy", "wclass", 8, 2.0, 2.0), ("monogamy", "haar", 3, 0.9, 1.0),
         ("polygamy", "wclass", 8, 0.9, 1.5), ("polygamy", "wclass", 4, 0.5, 0.5),
         ("monogamy", "haar", 2, 0.9, 2.0)],
        ids=["monogamy-alpha-2", "monogamy-mu-1", "polygamy-mu-1.5", "polygamy-alpha-0.5",
             "monogamy-haar-q2"],
    )
    def test_cell_outside_its_theorem_rejected_before_any_draw(
        self, mode, state_class, n_qubits, alpha, mu, no_draws
    ):
        # refused whether or not some sampled state would pass the hypothesis
        with pytest.raises(ConfigError, match=mode):
            CampaignConfig(mode=mode, n_states=3, n_qubits=n_qubits, state_class=state_class,
                           alpha_grid=(0.9, alpha), mu_grid=(mu,))
        record = WitnessRecord(0, mode, state_class, n_qubits, 1, alpha, mu, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ConfigError, match=mode):
            replay_record(record)

    @pytest.mark.parametrize("mode", sorted(monogamy.BOUNDS))
    @pytest.mark.parametrize("state_class", ["haar", "wclass"])
    def test_config_refuses_what_enter_refuses(self, mode, state_class):
        # one state rule on every route: a seeded campaign is refused when
        # configured exactly when monogamy.enter refuses its states from outside
        if state_class == "haar":
            draw, low = haar_random_state, 2
        else:
            draw, low = lambda n, seed: random_wclass(n, seed).to_state_vector(), 3
        for n_qubits in range(low, 6):
            verdicts = set()
            for seed in range(3):
                try:
                    monogamy.enter(draw(n_qubits, seed), mode)
                    verdicts.add("accepted")
                except MonoqError:
                    verdicts.add("refused")
            try:
                CampaignConfig(mode=mode, state_class=state_class, n_qubits=n_qubits)
                configured = "accepted"
            except ConfigError:
                configured = "refused"
            assert verdicts == {configured}, n_qubits


def _ckw_result(*margins) -> CampaignResult:
    """Campaign result over hand-made ckw records with the given margins."""
    n = len(margins)
    block = np.zeros((n, 1, 4))  # lhs, rhs and baseline 0
    block[:, 0, 2] = margins
    cells = (("ckw", "haar", 3, None, None, None),)
    return CampaignResult(CampaignConfig(mode="ckw", n_states=n), cells, np.arange(n)[:, None],
                          np.zeros(n, dtype=np.uint64), block, n, n, 0)


class TestCampaigns:
    def test_ckw_clean(self):
        config = CampaignConfig(mode="ckw", n_states=200, n_qubits=3, seed=11, tolerance=1e-10)
        result = run_campaign(config)
        assert result.n_violations == 0
        assert result.min_margin >= -1e-10
        assert len(result.records) == 200

    def test_lemma1_clean(self):
        config = CampaignConfig(
            mode="lemma1", n_states=100, n_qubits=3, seed=12, mu_grid=(2.0, 3.0, 4.0),
            tolerance=1e-10,
        )
        result = run_campaign(config)
        assert result.n_violations == 0
        assert len(result.records) == 300

    def test_scalar_grid_clean(self):
        config = CampaignConfig(
            mode="scalar", n_states=1, mu_grid=(0.0, 0.5, 1.0, 2.0, 4.0), tolerance=1e-12
        )
        result = run_campaign(config)
        assert result.n_violations == 0
        assert len(result.records) == 5 * 200

    def test_polygamy_wclass_clean(self):
        config = CampaignConfig(
            mode="polygamy",
            n_states=80,
            n_qubits=4,
            seed=13,
            state_class="wclass",
            alpha_grid=(0.8229, 1.3027),
            mu_grid=(0.25, 0.5, 1.0),
        )
        result = run_campaign(config)
        assert result.n_sampled == 80
        assert result.n_satisfied + result.n_skipped == 80
        assert result.n_violations == 0

    def test_monogamy_haar_finds_violations(self):
        # the weighted lower bound genuinely fails on a fraction of ordered
        # 3-qubit states; the campaign must surface them, not hide them
        config = CampaignConfig(
            mode="monogamy",
            n_states=300,
            n_qubits=3,
            seed=14,
            alpha_grid=(0.8229,),
            mu_grid=(2.0,),
        )
        result = run_campaign(config)
        assert result.n_violations > 0
        assert result.worst.margin == result.min_margin
        assert result.min_margin < -1e-3

    def test_determinism(self):
        config = CampaignConfig(mode="ckw", n_states=50, n_qubits=3, seed=21)
        a, b = run_campaign(config), run_campaign(config)
        assert a.records == b.records
        out_a, out_b = io.StringIO(), io.StringIO()
        a.write_records_csv(out_a)
        b.write_records_csv(out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_witness_csv_is_converted_a_chunk_at_a_time(self):
        # 12,000 records in six cells, so chunks of 1024 lines end mid-state.
        # The traced peak of the write stays near one chunk (0.5 MB); turning
        # every record into Python values at once peaked at 3.1 MB.
        config = CampaignConfig(mode="monogamy", n_states=2000, seed=3,
                                alpha_grid=(0.8229, 1.3027), mu_grid=(2.0, 3.0, 5.0))
        result = run_campaign(config)
        assert result.n_records == 12000 and harness.CSV_CHUNK_ROWS % len(result.cells)
        expected = hashlib.sha256((",".join(WitnessRecord.CSV_COLUMNS) + "\n").encode())
        for record in result.records:
            expected.update((",".join(record.to_csv_row()) + "\n").encode())
        written = hashlib.sha256()

        class Sink:
            def write(self, text):
                written.update(text.encode())

        tracemalloc.start()
        try:
            result.write_records_csv(Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written.hexdigest() == expected.hexdigest()
        assert peak < 1.5e6, peak

    def test_nan_margin_is_a_violation(self):
        assert _ckw_result(0.5, float("nan")).n_violations == 1

    def test_nonfinite_margins_are_counted(self):
        nan, inf = float("nan"), float("inf")
        assert _ckw_result(0.5, -0.25).summary()["n_nonfinite_margins"] == 0
        summary = _ckw_result(0.5, nan, -inf, inf, -1.0).summary()
        assert summary["n_nonfinite_margins"] == 3
        assert summary["n_violations"] == 3  # NaN, -inf and -1.0

    def test_records_come_from_the_columns(self):
        result = _ckw_result(0.5, -0.25)
        assert result.records == tuple(
            WitnessRecord(index=i, mode="ckw", state_class="haar", n_qubits=3, state_seed=0,
                          alpha=None, mu=None, lhs=0.0, rhs=0.0, margin=m, baseline_rhs=0.0)
            for i, m in enumerate((0.5, -0.25))
        )

    @pytest.mark.parametrize("margins", [(0.5, float("nan")), (float("nan"), 0.5)])
    def test_nan_margin_is_the_worst(self, margins):
        summary = _ckw_result(*margins).summary()
        assert summary["n_violations"] == 1
        assert math.isnan(summary["min_margin"])
        assert summary["worst"]["index"] == [math.isnan(m) for m in margins].index(True)

    def test_worst_is_the_first_smallest_margin(self):
        result = _ckw_result(0.5, -0.25, -0.25)
        assert result.worst.index == 1 and result.min_margin == -0.25

    def test_no_state_or_record_objects_per_state(self, monkeypatch):
        # states go straight into amplitude stacks and witnesses stay columns:
        # besides the arrays, nothing in a result grows with its records
        def forbidden(*args, **kwargs):
            raise AssertionError("object built inside a campaign")

        for cls in (StateVector, WClassState):
            monkeypatch.setattr(cls, "__post_init__", forbidden)
        monkeypatch.setattr(BoundReport, "__init__", forbidden)
        monkeypatch.setattr(WitnessRecord, "__new__", forbidden)
        monkeypatch.setattr(WitnessRecord, "_make", forbidden)
        for config in (
            CampaignConfig(mode="ckw", n_states=20, n_qubits=4, seed=3),
            CampaignConfig(mode="lemma1", n_states=20, n_qubits=3, seed=3),
            CampaignConfig(mode="monogamy", n_states=20, n_qubits=3, seed=3),
            CampaignConfig(mode="monogamy", n_states=20, n_qubits=4, seed=3, state_class="wclass"),
            CampaignConfig(mode="polygamy", n_states=20, n_qubits=5, seed=3),
            CampaignConfig(mode="scalar", n_states=1, mu_grid=(0.5, 2.0)),
        ):
            result = run_campaign(config)
            assert result.n_records
            n_cells = len(result.cells)
            assert result.block.shape == (result.n_records // n_cells, n_cells, 4)
            for field in dataclasses.fields(result):  # split counts: at most n - 1 entries
                value = getattr(result, field.name)
                assert isinstance(value, (np.ndarray, CampaignConfig, int, type(None))) \
                    or len(value) <= max(n_cells, config.n_qubits), field.name
            result.write_records_csv(io.StringIO())

    def test_summary_fields(self):
        config = CampaignConfig(mode="ckw", n_states=10, n_qubits=3, seed=2)
        summary = run_campaign(config).summary()
        for key in ("mode", "n_sampled", "n_violations", "min_margin", "mean_tightness_gain"):
            assert key in summary

    # summary keys as they were before the ordering counts; the new keys follow
    SUMMARY_KEYS = ["mode", "state_class", "n_qubits", "seed", "tolerance", "n_sampled",
                    "n_hypothesis_satisfied", "n_skipped", "n_records", "n_violations",
                    "min_margin", "mean_tightness_gain", "worst"]

    @pytest.mark.parametrize("mode", MODES)
    def test_summary_keys_keep_their_order(self, mode):
        hypothesis = mode in ("monogamy", "polygamy")
        config = CampaignConfig(mode=mode, n_states=5, n_qubits=4 if hypothesis else 3, seed=2,
                                state_class="wclass" if hypothesis else None)
        summary = run_campaign(config).summary()
        assert list(summary) == self.SUMMARY_KEYS + ["split_histogram", "skip_reasons",
                                                     "n_nonfinite_margins"]
        assert summary["n_nonfinite_margins"] == 0
        if not hypothesis:  # no ordering hypothesis, nothing skipped
            assert summary["split_histogram"] is None and summary["skip_reasons"] is None

    @pytest.mark.parametrize("mode, n_qubits", [("monogamy", 3), ("polygamy", 5)])
    def test_spectra_once_per_alpha(self, mode, n_qubits, monkeypatch):
        # every mu cell of an alpha reads the same cut entropy and pair f_alpha
        calls = Counter()

        def counted(name, fn):
            def call(values, alpha):
                calls[name, alpha] += 1
                return fn(values, alpha)
            return call

        for name in ("renyi_entropy", "f_alpha"):
            monkeypatch.setattr(monogamy, name, counted(name, getattr(monogamy, name)))
        config = CampaignConfig(mode=mode, n_states=30, n_qubits=n_qubits, seed=4,
                                state_class="wclass", alpha_grid=(0.9, 1.2, 0.9))
        result = run_campaign(config)
        assert result.n_records == 3 * len(config.mu_grid) * result.n_satisfied > 0
        names = ("renyi_entropy", "f_alpha")
        assert calls == {(name, alpha): 1 for name in names for alpha in (0.9, 1.2)}

    def test_file_class_single_state(self, tmp_path):
        path = tmp_path / "w.json"
        save_state(w_state(), path)
        config = CampaignConfig(
            mode="polygamy",
            n_states=5,
            n_qubits=3,
            state_class="file",
            state_file=str(path),
            mu_grid=(0.5,),
            alpha_grid=(0.823,),
        )
        result = run_campaign(config)
        assert result.n_sampled == 1
        assert result.n_violations == 0

    def test_wclass_chunks_are_sized_by_their_coefficients(self, monkeypatch):
        # 5,000 7-qubit W-class states are one chunk of coefficients; sized by
        # 2**7 amplitudes they were 10 chunks of 512, with the same bytes out
        config = CampaignConfig(mode="polygamy", n_states=5000, n_qubits=7, seed=24)
        calls = []

        def counting_derive_seeds(*args):
            calls.append(args)
            return derive_seeds(*args)

        monkeypatch.setattr(harness, "derive_seeds", counting_derive_seeds)
        outputs = []
        for budget in (harness.CHUNK_AMPLITUDES, 512 * 7):
            monkeypatch.setattr(harness, "CHUNK_AMPLITUDES", budget)
            calls.clear()
            result = run_campaign(config)
            out = io.StringIO()
            result.write_records_csv(out)
            outputs.append((out.getvalue(), json.dumps(result.summary()), len(calls)))
        (csv_one, summary_one, one), (csv_ten, summary_ten, ten) = outputs
        assert (one, ten) == (1, 10)
        assert csv_one == csv_ten and summary_one == summary_ten
        assert result.n_records > 0


class TestSkipReasons:
    """The split histogram and first failed conditions against per-state profiles."""

    @staticmethod
    def _expected(states):
        splits, reasons = Counter(), Counter()
        for psi in states:
            profile = detect_ordering(psi)
            splits[str(profile.split_index)] += 1
            if not profile.satisfied:
                reasons[f"satisfied_ge[{profile.satisfied_ge.index(False)}]"] += 1
        n = states[0].n_qubits
        histogram = {"full": splits["full"], **{str(m): splits[str(m)] for m in range(1, n - 2)},
                     "none": splits["None"]}
        keys = [f"satisfied_ge[{i}]" for i in range(n - 2)]
        return histogram, {key: reasons[key] for key in keys}

    @pytest.mark.parametrize("mode, n_qubits", [("monogamy", n) for n in (3, 4, 5, 7)]
                             + [("polygamy", n) for n in (4, 6)])
    def test_counts_match_profiles(self, mode, n_qubits):
        config = CampaignConfig(mode=mode, n_states=50, n_qubits=n_qubits, seed=80 + n_qubits,
                                state_class="wclass")
        result = run_campaign(config)
        states = [random_wclass(n_qubits, seed).to_state_vector()
                  for seed in derive_seeds(config.seed, 0, config.n_states).tolist()]
        histogram, reasons = self._expected(states)
        summary = result.summary()
        assert summary["split_histogram"] == histogram
        assert summary["skip_reasons"] == reasons
        assert sum(histogram.values()) == result.n_sampled
        assert histogram["none"] == sum(reasons.values()) == result.n_skipped
        if n_qubits > 4:
            assert result.n_skipped > 0  # the reasons are exercised

    def test_counts_add_up_over_chunks(self, monkeypatch):
        config = CampaignConfig(mode="monogamy", n_states=60, n_qubits=5, seed=9,
                                state_class="wclass")
        whole = run_campaign(config).summary()
        monkeypatch.setattr(harness, "CHUNK_AMPLITUDES", 7 * 5)  # 7 states of 5 coefficients
        chunked = run_campaign(config).summary()
        assert chunked == whole
        assert whole["skip_reasons"]["satisfied_ge[0]"] > 0

    @pytest.mark.parametrize(
        "b, histogram, reasons",
        [
            ((0.7, 0.3, 0.25, 0.25), {"full": 0, "1": 1, "2": 0, "none": 0}, [0, 0, 0]),
            ((0.5, 0.5, 0.5, 0.5), {"full": 0, "1": 0, "2": 0, "none": 1}, [1, 0, 0]),
            ((0.9, 0.3, 0.29, 0.15), {"full": 0, "1": 0, "2": 0, "none": 1}, [0, 1, 0]),
        ],
        ids=["split-1", "ge0-fails", "ge1-fails"],
    )
    def test_file_states(self, b, histogram, reasons, tmp_path):
        b = np.array(b) / np.linalg.norm(b) * np.sqrt(0.7)
        path = tmp_path / "state.json"
        save_state(build_wclass(np.sqrt(0.3), tuple(b))[1], path)
        summary = run_campaign(CampaignConfig(mode="polygamy", state_class="file",
                                              state_file=str(path))).summary()
        assert summary["split_histogram"] == histogram
        assert summary["skip_reasons"] == {f"satisfied_ge[{i}]": c for i, c in enumerate(reasons)}


class TestReplay:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "1", None])
    def test_a_seed_no_state_was_drawn_from_is_refused(self, seed):
        record = WitnessRecord(0, "ckw", "haar", 3, 1, None, None, 0.0, 0.0, 0.0, 0.0)
        replay_record(record)  # seed 1 replays
        with pytest.raises(ConfigError, match="state_seed"):
            replay_record(record._replace(state_seed=seed))

    @pytest.mark.parametrize("field, value", [("n_qubits", 3.0), ("alpha", "0.9"), ("mu", "2")])
    def test_fields_of_the_wrong_type_are_refused(self, field, value):
        record = WitnessRecord(0, "monogamy", "wclass", 3, 1, 0.9, 2.0, 0.0, 0.0, 0.0, 0.0)
        replay_record(record)
        with pytest.raises(ConfigError, match=field):
            replay_record(record._replace(**{field: value}))

    @pytest.mark.parametrize(
        "config",
        [
            CampaignConfig(mode="ckw", n_states=20, n_qubits=3, seed=31),
            CampaignConfig(mode="lemma1", n_states=10, n_qubits=3, seed=32, mu_grid=(2.0, 3.0)),
            CampaignConfig(
                mode="monogamy", n_states=20, n_qubits=3, seed=33,
                alpha_grid=(0.8229,), mu_grid=(2.0,),
            ),
            CampaignConfig(
                mode="polygamy", n_states=20, n_qubits=4, seed=34, state_class="wclass",
                alpha_grid=(1.3027,), mu_grid=(0.5,),
            ),
            CampaignConfig(mode="scalar", n_states=1, mu_grid=(0.5, 2.0)),
            CampaignConfig(
                mode="polygamy", n_states=20, n_qubits=6, seed=35, state_class="wclass",
                alpha_grid=ALPHA_WINDOW, mu_grid=(0.25, 1.0),
            ),
            CampaignConfig(
                mode="polygamy", state_class="file", state_file="split.json",
                alpha_grid=ALPHA_WINDOW, mu_grid=(0.25, 0.5, 1.0),
            ),
            CampaignConfig(
                mode="monogamy", state_class="file", state_file="split.json",
                alpha_grid=ALPHA_WINDOW, mu_grid=(2.0, 5.0),
            ),
        ],
        ids=["ckw", "lemma1", "monogamy", "polygamy", "scalar", "polygamy-q6",
             "polygamy-split-file", "monogamy-split-file"],
    )
    def test_records_replay_exactly(self, config, tmp_path, monkeypatch):
        state = None
        if config.state_class == "file":
            # seeded W-class states order their partners by decreasing modulus,
            # so only a tie in the last two partners yields a split ladder
            monkeypatch.chdir(tmp_path)
            save_state(build_wclass(np.sqrt(0.295), (0.7, 0.3, 0.25, 0.25))[1], config.state_file)
            state = load_state(config.state_file)
            assert detect_ordering(state).split_index == 1
        result = run_campaign(config)
        assert result.records
        for record in result.records:
            assert replay_record(record, state) == record.margin

    @pytest.mark.parametrize(
        "mode, n_qubits",
        [("monogamy", n) for n in range(3, 9)] + [("polygamy", n) for n in range(4, 9)],
    )
    def test_wclass_records_replay_and_file_states_give_the_same_rows(self, mode, n_qubits,
                                                                      tmp_path, capsys):
        # features, ordering and spectra come from the same closed form on
        # every route: a seeded campaign, its replay, a file-class campaign,
        # the public bound functions and ``eval`` on the file
        mu_grid = (2.0, 5.0) if mode == "monogamy" else (0.25, 1.0)
        n_states = 60 if n_qubits < 7 else 240  # few wide states pass: 2 of 60 at 7 qubits
        config = CampaignConfig(mode=mode, n_states=n_states, n_qubits=n_qubits,
                                seed=1300 + n_qubits, state_class="wclass",
                                alpha_grid=ALPHA_WINDOW, mu_grid=mu_grid)
        by_index: dict = {}
        for record in run_campaign(config).records:
            assert replay_record(record) == record.margin
            by_index.setdefault(record.index, []).append(record)
        assert by_index
        bound = theorem_bound if mode == "monogamy" else theorem3_bound
        for index, records in by_index.items():
            psi = random_wclass(n_qubits, records[0].state_seed).to_state_vector()
            path = tmp_path / f"state{index}.json"
            save_state(psi, path)
            state = load_state(path)
            from_file = run_campaign(dataclasses.replace(
                config, state_class="file", state_file=str(path), n_qubits=3
            )).records
            rows = [(r.alpha, r.mu, r.lhs, r.rhs, r.margin, r.baseline_rhs) for r in from_file]
            profile = detect_ordering(state)
            public = [bound(state, profile, AlphaMu(r.alpha, r.mu)) for r in from_file]
            assert [(b.alpha, b.mu, b.lhs, b.rhs, b.margin, b.baseline_rhs) for b in public] == rows
            out = tmp_path / "eval.json"
            assert main(["eval", str(path), "--alpha", repr(rows[0][0]), "--mu", repr(rows[0][1]),
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())["report"]
            keys = ("lhs", "rhs", "margin", "baseline_rhs")
            assert tuple(report[k] for k in keys) == rows[0][2:]
            # the file loads back as the seeded state, so every row is the seeded one
            assert state.amplitudes.tobytes() == psi.amplitudes.tobytes()
            assert rows == [(r.alpha, r.mu, r.lhs, r.rhs, r.margin, r.baseline_rhs) for r in records]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "mode, n_qubits",
        [("ckw", 3), ("lemma1", 3), ("monogamy", 3), ("monogamy", 4), ("polygamy", 4)],
        ids=["ckw", "lemma1", "monogamy", "monogamy-wclass-q4", "polygamy-q4"],
    )
    def test_file_states_with_other_labels_replay_exactly(self, mode, n_qubits, tmp_path):
        # the focus is the file's first qubit, whatever its label
        if n_qubits == 3:
            psi = haar_random_state(3, seed=4)
        else:  # a W-class state that satisfies the full ordering hypothesis
            psi = build_wclass(np.sqrt(0.3), (np.sqrt(0.4), np.sqrt(0.2), np.sqrt(0.1)))[1]
        path = tmp_path / "state.json"
        save_state(StateVector(psi.amplitudes, ("W", "X", "Y", "Z")[-psi.n_qubits:]), path)
        state = load_state(path)
        result = run_campaign(CampaignConfig(mode=mode, state_class="file", state_file=str(path)))
        assert result.records
        for record in result.records:
            assert replay_record(record, state) == record.margin

    @pytest.mark.parametrize(
        "config, budget",
        [
            (CampaignConfig(mode="ckw", n_states=70, n_qubits=10, seed=36), None),
            (CampaignConfig(mode="ckw", n_states=30, n_qubits=5, seed=37), 2**7),
            (CampaignConfig(mode="lemma1", n_states=30, n_qubits=3, seed=38), 2**5),
            (CampaignConfig(mode="monogamy", n_states=30, n_qubits=3, seed=39), 2**5),
            (CampaignConfig(mode="monogamy", n_states=60, n_qubits=4, seed=40,
                            state_class="wclass"), 2**7),
            (CampaignConfig(mode="polygamy", n_states=60, n_qubits=5, seed=41), 2**8),
        ],
        ids=["ckw-q10", "ckw-q5", "lemma1", "monogamy", "monogamy-wclass", "polygamy"],
    )
    def test_records_of_a_multi_chunk_campaign_replay_exactly(self, config, budget, monkeypatch):
        # each record's features came from a stack of several states; its
        # replay computes them from that state alone
        if budget is not None:
            monkeypatch.setattr(harness, "CHUNK_AMPLITUDES", budget)
        width = harness._DRAW_WIDTH[config.state_class](config.n_qubits)
        assert config.n_states * width > harness.CHUNK_AMPLITUDES  # two chunks or more
        result = run_campaign(config)
        assert result.records
        for record in result.records:
            assert replay_record(record) == record.margin


class TestHelpers:
    def test_fmt12(self):
        assert fmt12(0.5) == "0.5"
        assert fmt12(None) == ""
        assert fmt12(1 / 3) == "0.333333333333"
        assert fmt12(-0.0) == "-0"  # never produced by measure outputs

    def test_derive_seeds_deterministic(self):
        seeds = derive_seeds(42, 7, 9).tolist()
        assert seeds == derive_seeds(42, 7, 9).tolist()
        assert seeds[0] != seeds[1]
        assert derive_seeds(43, 7, 8)[0] != seeds[0]
        assert derive_seeds(42, 8, 8).size == 0

    def test_falpha_table(self):
        header, rows = falpha_table([0.823, 1.3], points=5)
        assert header[0] == "x"
        assert len(rows) == 5
        assert rows[0][1] == 0.0
        assert abs(rows[-1][1] - 1.0) < 1e-12
        assert rows[2][1] == pytest.approx(f_alpha(0.5, 0.823), abs=1e-15)

    def test_falpha_table_validation(self):
        with pytest.raises(ConfigError):
            falpha_table([], points=5)
        with pytest.raises(ConfigError):
            falpha_table([0.9], points=1)

    def test_reference_alpha_reproduces_printed_values(self):
        # the six-decimal reference values are quoted at order 0.823
        assert abs(f_alpha(1 / 6, REFERENCE_ALPHA) - 0.318620) < 1e-6
        assert abs(f_alpha(0.5, REFERENCE_ALPHA) - 0.654205) < 1e-6
