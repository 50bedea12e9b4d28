import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoq import (
    AlphaMu,
    MonoqError,
    ParameterError,
    UnsupportedStateClassError,
    WitnessRecord,
    ckw_check,
    detect_ordering,
    haar_random_state,
    lemma1_check,
    random_wclass,
    replay_record,
    save_state,
    theorem3_bound,
    theorem_bound,
    w_state,
)
from monoq import harness
from monoq.cli import build_parser, main
from monoq.harness import fmt12, reference_schmidt_state
from monoq.core import StateVector
from monoq.measures import PureFeatures


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    save_state(reference_schmidt_state(), path)
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    save_state(w_state(), path)
    return str(path)


@pytest.fixture
def xyz_file(tmp_path):
    path = tmp_path / "xyz.json"
    save_state(StateVector(haar_random_state(3, seed=4).amplitudes, ("X", "Y", "Z")), path)
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.json"
    amps = np.kron(np.kron([1, 0], [1, 0]), [1, 0]).astype(complex)
    save_state(StateVector(amps), path)
    return str(path)


class TestEval:
    def test_reference_state_monogamy(self, ex1_file, capsys):
        assert main(["eval", ex1_file, "--alpha", "0.823", "--mu", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "monogamy"
        report = out["report"]
        assert report["lhs"] == pytest.approx(0.654205**2, abs=1e-5)
        assert report["rhs"] == pytest.approx(4 * 0.318620**2, abs=1e-5)
        assert report["weights"] == [1.0, 3.0]
        assert out["profile"]["split_index"] == "full"
        assert report["margin"] > 0

    def test_w_state_polygamy(self, w_file, capsys):
        assert main(["eval", w_file, "--alpha", "0.823", "--mu", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "polygamy"
        report = out["report"]
        assert report["lhs"] == pytest.approx(0.932108**0.5, abs=1e-5)
        assert report["rhs"] == pytest.approx(2.0**0.5 * 0.607218**0.5, abs=1e-5)
        assert report["margin"] >= 0

    def test_product_state_zeros(self, product_file, capsys):
        assert main(["eval", product_file, "--mu", "2"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["lhs"] == 0.0 and report["rhs"] == 0.0

    def test_product_state_zeros_have_no_sign(self, product_file, tmp_path, capsys):
        # above alpha = 1 the entropy of a pure cut is log2(1) / (1 - alpha) = -0.0,
        # which printed as "-0.0" in the report and "-0" in the witness row at odd mu
        assert main(["eval", product_file, "--alpha", "1.2", "--mu", "3"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert [math.copysign(1.0, report[key]) for key in ("lhs", "rhs", "margin")] == [1.0] * 3
        out = tmp_path / "witness.csv"
        assert main(["fuzz", "--mode", "monogamy", "--class", "file", "--state", product_file,
                     "--alpha", "1.2", "--mu", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0,monogamy,file,3,0,1.2,3,,0,0,0,0"

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "missing.json"), "--mu", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ambiguous_mu(self, w_file, capsys):
        assert main(["eval", w_file, "--mu", "1.5"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_non_wclass_polygamy_explained(self, ex1_file, capsys):
        code = main(["eval", ex1_file, "--mu", "0.5", "--mode", "polygamy"])
        captured = capsys.readouterr()
        assert code == 2
        assert "single-excitation" in captured.err

    def test_focus_relabeling(self, w_file, capsys):
        assert main(["eval", w_file, "--mu", "2", "--focus", "B1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["profile"]["focus"] == "B1"

    def test_focus_must_be_a_label(self, w_file, capsys):
        assert main(["eval", w_file, "--mu", "2", "--focus", "Z"]) == 2
        assert "focus 'Z' not among labels" in capsys.readouterr().err

    def test_focus_on_other_labels(self, xyz_file, capsys):
        assert main(["eval", xyz_file, "--mu", "2", "--focus", "Y"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["profile"]["focus"] == "Y"
        assert sorted(out["profile"]["party_order"]) == ["X", "Z"]

    @pytest.mark.parametrize("mu", ["2", "0.5"])
    def test_features_are_computed_once(self, w_file, mu, monkeypatch, capsys):
        # detect_ordering computes the state's features; the report reads its profile
        of, calls = PureFeatures.of.__func__, []

        def counted(cls, amplitudes):
            calls.append(amplitudes.shape)
            return of(cls, amplitudes)

        monkeypatch.setattr(PureFeatures, "of", classmethod(counted))
        assert main(["eval", w_file, "--mu", mu]) == 0
        assert json.loads(capsys.readouterr().out)["report"] is not None
        assert calls == [(1, 8)]

    def test_focus_defaults_to_first_label(self, xyz_file, capsys):
        assert main(["eval", xyz_file, "--mu", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["eval", xyz_file, "--mu", "2", "--focus", "X"]) == 0
        assert default == capsys.readouterr().out


class TestReproduce:
    def test_fig1_stdout(self, capsys):
        assert main(["reproduce", "fig1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu,lhs,ours,prior"
        assert len(lines) == 162
        first = lines[1].split(",")
        assert first[0] == "2"
        assert float(first[1]) == pytest.approx(0.654205**2, abs=1e-5)

    def test_fig2_file_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce", "fig2", "--out", str(out1)]) == 0
        assert main(["reproduce", "fig2", "--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data.startswith(b"mu,lhs,ours,prior\n0,1,1,2\n")

    def test_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "nosuchdir" / "x.csv"
        assert main(["reproduce", "fig1", "--out", str(target)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFuzz:
    def test_campaign_with_every_state_skipped(self, tmp_path, capsys):
        # no 10-qubit W-class state of these seeds has a ladder: every chunk
        # returns before the columns, and the campaign claims nothing
        witness = tmp_path / "witness.csv"
        assert main(["fuzz", "--mode", "polygamy", "--class", "wclass", "--qubits", "10",
                     "--states", "200", "--seed", "3", "--out", str(witness)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["n_records"], out["n_skipped"], out["split_histogram"]["none"]) == (0, 200, 200)
        assert witness.read_text() == "index,mode,class,qubits,state_seed,alpha,mu,t,lhs,rhs,margin,baseline_rhs\n"

    def test_scalar_grid_passes(self, capsys):
        code = main(["fuzz", "--mode", "scalar", "--mu", "0.5,2,4", "--tolerance", "1e-12"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["n_violations"] == 0

    def test_ckw_passes(self, capsys):
        code = main(["fuzz", "--mode", "ckw", "--states", "100", "--qubits", "3",
                     "--seed", "5", "--tolerance", "1e-10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["n_violations"] == 0
        assert out["min_margin"] > 0

    def test_monogamy_violations_flip_exit_code(self, capsys, tmp_path):
        witness = tmp_path / "witness.csv"
        code = main([
            "fuzz", "--mode", "monogamy", "--states", "300", "--qubits", "3",
            "--seed", "14", "--alpha", "0.8229", "--mu", "2", "--out", str(witness),
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["n_violations"] > 0
        header, *rows = witness.read_text().strip().splitlines()
        assert header.startswith("index,mode,class,")
        assert len(rows) == out["n_records"]

    def test_zero_states_config_error(self, capsys):
        assert main(["fuzz", "--mode", "ckw", "--states", "0"]) == 2
        assert "n_states" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--seed", "-1"], "seed must be nonnegative"),
            (["--mu", "nan"], "must be finite"),
            (["--alpha", "inf"], "must be finite"),
            (["--tolerance", "inf"], "must be finite"),
        ],
        ids=["seed", "mu", "alpha", "tolerance"],
    )
    def test_negative_or_non_finite_input_exits_2(self, extra, message, capsys):
        # exit 1 would read as "violations found"; exit 0 would pass garbage
        assert main(["fuzz", "--mode", "monogamy", "--states", "5", *extra]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, mu", [("monogamy", "2000"), ("lemma1", "3000"), ("scalar", "2000")]
    )
    def test_power_above_cap_exits_2(self, mode, mu, capsys):
        # 2.0**mu used to overflow and crash (exit 3) on such input
        assert main(["fuzz", "--mode", mode, "--states", "2", "--mu", mu]) == 2
        assert "must be at most 100" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--mode", "polygamy", "--mu", "1.5"],
         ["--mode", "monogamy", "--class", "wclass", "--alpha", "2.0"]],
        ids=["polygamy-mu-1.5", "monogamy-alpha-2"],
    )
    def test_cell_outside_its_theorem_exits_2_without_passing_states(self, extra, capsys):
        # no 8-qubit state of these seeds passes the hypothesis; the cell is refused anyway
        assert main(["fuzz", "--qubits", "8", "--states", "3", "--seed", "1", *extra]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["scalar", "lemma1", "monogamy"])
    def test_negative_power_exits_2(self, mode, capsys):
        # the scalar grid took 0.0**mu before rejecting mu: a divide-by-zero warning
        assert main(["fuzz", "--mode", mode, "--states", "2", "--mu", "1,-0.5"]) == 2
        assert "mu must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["ckw", "scalar", "monogamy"])
    @pytest.mark.parametrize(
        "alpha, message",
        [("1000", "alpha must be at most 100"), ("0", "alpha must be positive"), ("-1", "alpha must be positive")],
        ids=["1000", "0", "-1"],
    )
    def test_order_outside_range_exits_2(self, mode, alpha, message, capsys):
        # ckw and scalar campaigns read no order, and used to run on any
        assert main(["fuzz", "--mode", mode, "--states", "2", f"--alpha={alpha}"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--qubits", "0"], ["--qubits", "1"], ["--qubits", "11"], ["--qubits", "1000000"],
         ["--mode", "monogamy", "--class", "wclass", "--qubits", "2"],
         ["--mode", "polygamy", "--class", "wclass", "--qubits", "11"]],
        ids=["haar-0", "haar-1", "haar-11", "haar-1000000", "wclass-2", "wclass-11"],
    )
    def test_qubit_count_out_of_range_exits_2(self, extra, capsys, monkeypatch):
        # the count is checked with the settings, before a seed or a 2**n stack is made
        def no_sampling(*args):
            raise AssertionError("a state was sampled")

        # every per-state seed comes from derive_seeds, every stack row from pcg64_states
        monkeypatch.setattr("monoq.harness.derive_seeds", no_sampling)
        monkeypatch.setattr("monoq.core.pcg64_states", no_sampling)
        assert main(["fuzz", "--mode", "ckw", "--states", "3", *extra]) == 2
        assert "n_qubits" in capsys.readouterr().err

    @pytest.mark.parametrize("state_class", ["haar", "file"])
    def test_two_qubit_monogamy_exits_2(self, state_class, tmp_path, capsys):
        # the stacked ordering decision needs a third qubit; without one the
        # input is rejected, not left to fail inside (exit 3)
        extra = ["--qubits", "2"]
        if state_class == "file":
            save_state(StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2)), tmp_path / "bell.json")
            extra = ["--class", "file", "--state", str(tmp_path / "bell.json")]
        assert main(["fuzz", "--mode", "monogamy", "--states", "4", *extra]) == 2
        assert "ordering profiles need at least 3 qubits" in capsys.readouterr().err

    def test_power_at_cap_runs(self, capsys):
        code = main(["fuzz", "--mode", "monogamy", "--states", "5", "--mu", "100"])
        assert code in (0, 1)
        assert json.loads(capsys.readouterr().out)["n_records"] == 5 * 2

    @pytest.mark.parametrize("mode", ["ckw", "lemma1", "monogamy"])
    def test_file_class_with_other_labels(self, mode, xyz_file, capsys):
        # bounds are evaluated around the file's first qubit, whatever its label
        code = main(["fuzz", "--mode", mode, "--class", "file", "--state", xyz_file])
        assert code == (1 if json.loads(capsys.readouterr().out)["n_violations"] else 0)

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode=ckw\nstates=40\nqubits=3\nseed=9\n")
        code = main(["fuzz", "--config", str(cfg), "--states", "15"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["n_sampled"] == 15  # CLI beats file
        assert out["seed"] == 9

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # the decode error escaped as a traceback with exit 3
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"mode=ckw\nstates=4\xff\n")
        assert main(["fuzz", "--config", str(cfg)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOQ_SEED", "777")
        main(["fuzz", "--mode", "ckw", "--states", "5", "--qubits", "3"])
        assert json.loads(capsys.readouterr().out)["seed"] == 777

    def test_bad_env_seed(self, capsys, monkeypatch):
        for value in ("abc", "-5"):
            monkeypatch.setenv("MONOQ_SEED", value)
            assert main(["fuzz", "--mode", "ckw", "--states", "5"]) == 2

    def test_env_seed_is_parsed_like_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOQ_SEED", "abc")
        assert main(["fuzz", "--mode", "ckw", "--states", "5"]) == 2
        assert "bad value for seed" in capsys.readouterr().err

    def test_env_seed_is_read_only_without_a_seed(self, tmp_path, capsys, monkeypatch):
        # the variable was parsed, and refused, under --seed as well
        monkeypatch.setenv("MONOQ_SEED", "abc")
        assert main(["fuzz", "--mode", "ckw", "--states", "5", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode=ckw\nstates=5\nseed=9\n")
        assert main(["fuzz", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 9

    def test_flags_are_the_settings_keys(self, capsys):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = [a for a in subparsers.choices["fuzz"]._actions if "--help" not in a.option_strings]
        assert sorted(a.option_strings[0] for a in flags) == sorted(
            [f"--{key}" for key in harness._SETTINGS] + ["--config", "--out"])
        assert all(a.type is None and a.choices is None for a in flags)
        with pytest.raises(SystemExit):
            main(["fuzz", "--help"])
        text = capsys.readouterr().out
        assert all(name in text for name in (*harness.MODES, *harness.STATE_CLASSES))

    @pytest.mark.parametrize("key, value", [("states", "abc"), ("qubits", "x"), ("seed", "1.5"),
                                            ("tolerance", "tiny")])
    def test_flag_text_that_does_not_parse_exits_2(self, key, value, capsys):
        assert main(["fuzz", "--mode", "ckw", f"--{key}", value]) == 2
        assert f"bad value for {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--mode", "nope"], ["--mode", "ckw", "--class", "nope"]],
                             ids=["mode", "class"])
    def test_unknown_mode_or_class_exits_2(self, extra, capsys):
        assert main(["fuzz", *extra]) == 2
        assert "must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, psi",
        [("polygamy", reference_schmidt_state()), ("monogamy", haar_random_state(4, seed=8))],
    )
    def test_file_state_entry_check(self, mode, psi, tmp_path, capsys):
        # the pair terms and the tails beyond three qubits hold for W-class states only
        path = tmp_path / "state.json"
        save_state(psi, path)
        assert main(["fuzz", "--mode", mode, "--class", "file", "--state", str(path)]) == 2
        assert "single-excitation" in capsys.readouterr().err


BAD_RECORDS = {
    "huge-qubit-count": {"n_qubits": 20000, "labels": [], "amplitudes": [[1.0, 0.0]]},
    "nan-amplitude": {
        "n_qubits": 3, "labels": ["A", "B1", "B2"],
        "amplitudes": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7,
    },
    "huge-amplitude": {
        "n_qubits": 3, "labels": ["A", "B1", "B2"],
        "amplitudes": [[1e300, 0.0]] + [[0.0, 0.0]] * 7,
    },
}


@pytest.mark.parametrize("record", sorted(BAD_RECORDS))
@pytest.mark.parametrize(
    "command", [["eval"], ["fuzz", "--mode=monogamy", "--class=file", "--state"]]
)
def test_bad_state_record_exits_2(command, record, tmp_path, capsys):
    # these used to crash (exit 3): 2**20000 formatted into the error text, NaN
    # into an SVD; a huge amplitude printed an overflow warning from the norm
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_RECORDS[record]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(command + [str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_crash_exits_3_with_traceback(capsys, monkeypatch):
    # a crash must not read as "violations found" (1) or bad input (2)
    def crash(config):
        raise RuntimeError("boom")

    monkeypatch.setattr("monoq.cli.run_campaign", crash)
    assert main(["fuzz", "--mode", "ckw", "--states", "1"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


class TestFalpha:
    def test_table_output(self, capsys):
        assert main(["falpha", "--alpha", "0.823,1.3", "--points", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,f_alpha=0.823,f_alpha=1.3"
        assert lines[1].startswith("0,0,")
        assert lines[-1] == "1,1,1"

    def test_bad_order_exits_2(self, capsys):
        assert main(["falpha", "--alpha", "0.9,abc"]) == 2
        assert "bad numeric grid" in capsys.readouterr().err

    def test_order_above_cap_exits_2(self, capsys):
        # every p**alpha used to underflow, printing inf with exit 0
        assert main(["falpha", "--alpha", "100000", "--points", "5"]) == 2
        assert "alpha must be at most 100" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fuzz", "eval", "reproduce", "falpha"])
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_numeric_flags_never_crash(command, data, tmp_path, capsys):
    # any number on a numeric flag is a result (0, 1) or bad input (2), never a crash (3)
    def flag(name, values):
        return f"--{name}={data.draw(values)}"  # "=" also passes values such as -1e+300

    def number(usual):  # half the draws from the usual range, half from all floats
        return st.one_of(usual, st.floats()).map(repr)  # nan and +-inf included

    alpha, mu = number(st.floats(0.82, 1.31)), number(st.floats(0.0, 5.0))
    if command == "fuzz":
        mode = data.draw(st.sampled_from(["ckw", "lemma1", "monogamy", "polygamy", "scalar"]))
        seed = st.one_of(st.integers(0, 2**64), st.integers())
        argv = ["fuzz", f"--mode={mode}", flag("states", st.integers(-1, 4)),
                flag("qubits", st.integers(-1, 6)), flag("seed", seed), flag("alpha", alpha),
                flag("mu", mu), flag("tolerance", number(st.floats(0.0, 1.0)))]
    elif command == "eval":
        path = tmp_path / "w.json"
        save_state(w_state(), path)
        argv = ["eval", str(path), flag("alpha", alpha), flag("mu", mu)]
    elif command == "reproduce":
        argv = ["reproduce", data.draw(st.sampled_from(["fig1", "fig2"])), flag("alpha", alpha)]
    else:
        argv = ["falpha", flag("alpha", alpha), flag("points", st.integers(-2, 40))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), captured.err
    if command == "falpha" and code == 0:  # every printed value is a number
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        assert all(np.isfinite(float(v)) for row in rows for v in row), captured.out


@pytest.mark.parametrize("command", ["eval", "fuzz"])
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_state_files_never_crash(command, data, tmp_path, capsys):
    # any state record is a result (0, 1) or bad input (2), never a crash (3)
    kind = data.draw(st.sampled_from(["state", "wrong length", "any count"]), label="record")
    if kind == "any count":  # half or more with over 4300 decimal digits in 2**n
        n = data.draw(
            st.one_of(st.integers(-2, 20000), st.integers(14300, 20000)), label="n_qubits"
        )
    else:  # sampled_from leans to its first entries: the ones that reach the bounds
        n = data.draw(st.sampled_from([3, 2, 4, 1]), label="n_qubits")
    size = 2**n if kind == "state" else data.draw(st.integers(0, 20), label="length")
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size))
    if kind == "state" and data.draw(st.booleans(), label="single excitation"):
        onehot = [1 << k for k in range(n)]
        values = [v if i // 2 in onehot else 0.0 for i, v in enumerate(values)]
    norm = float(np.sqrt(sum(v * v for v in values)))
    values = [v / norm for v in values] if norm > 0 else values
    for _ in range(data.draw(st.sampled_from([1, 0, 2]), label="entries replaced") if size else 0):
        i = data.draw(st.integers(0, 2 * size - 1))
        values[i] = data.draw(st.one_of(st.just(float("nan")), st.floats()), label="any float")
    k = max(0, min(n, 12))
    labels = data.draw(st.sampled_from([[f"Q{i}" for i in range(k)], ["Q"] * k]), label="labels")
    pairs = [values[i:i + 2] for i in range(0, 2 * size, 2)]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n_qubits": n, "labels": labels, "amplitudes": pairs}))
    if command == "eval":
        argv = ["eval", str(path), f"--mu={data.draw(st.sampled_from([0.5, 2.0]))}"]
    else:
        mode = data.draw(st.sampled_from(["ckw", "lemma1", "monogamy", "polygamy"]))
        argv = ["fuzz", f"--mode={mode}", "--class=file", f"--state={path}"]
    code = main(argv)
    assert code in (0, 1, 2), capsys.readouterr().err


def _noisy_wclass(seed: int, weight: float) -> StateVector:
    """A 4-qubit W-class state with ``weight`` of amplitude on |0000>, off its support."""
    amps = random_wclass(4, seed).to_state_vector().amplitudes.copy()
    amps[0] = weight
    return StateVector(amps / np.linalg.norm(amps))


def _first_ordered(states) -> StateVector:
    """The first state whose ordering hypothesis holds, so every accepting route gives a margin."""
    return next(psi for psi in states if detect_ordering(psi).satisfied)


# Edge states for the entry check: Haar states at and beyond three qubits,
# W-class states with off-support weight below and above the 1e-10 permission,
# and two-qubit states, one of them single-excitation.
EDGE_STATES = {
    "haar-3": lambda: _first_ordered(haar_random_state(3, seed) for seed in range(50)),
    "haar-4": lambda: haar_random_state(4, seed=1),
    "wclass-4-noise-1e-11": lambda: _first_ordered(_noisy_wclass(seed, 1e-11) for seed in range(50)),
    "wclass-4-noise-5e-10": lambda: _noisy_wclass(3, 5e-10),
    "two-qubit": lambda: haar_random_state(2, seed=1),
    "two-qubit-single-excitation": lambda: StateVector(np.array([0, 1, 1, 0]) / np.sqrt(2)),
}

# The refusals the state rules give; every other (mode, state) is accepted.
# Off-support weight up to 1e-10 is allowed, so only the 5e-10 state is not W-class.
REFUSALS = {
    **{("monogamy", state): UnsupportedStateClassError for state in ("haar-4", "wclass-4-noise-5e-10")},
    **{("polygamy", state): UnsupportedStateClassError
       for state in ("haar-3", "haar-4", "wclass-4-noise-5e-10")},
    **{(mode, state): ParameterError
       for mode in ("monogamy", "polygamy") for state in ("two-qubit", "two-qubit-single-excitation")},
    **{("lemma1", state): UnsupportedStateClassError for state in EDGE_STATES if state != "haar-3"},
}

# The public bound of each mode on one state, and its cell as (alpha, mu).
PUBLIC_BOUNDS = {
    "monogamy": ((0.9, 2.0), lambda psi: theorem_bound(psi, detect_ordering(psi), AlphaMu(0.9, 2.0))),
    "polygamy": ((0.9, 0.5), lambda psi: theorem3_bound(psi, detect_ordering(psi), AlphaMu(0.9, 0.5))),
    "lemma1": ((None, 2.0), lambda psi: lemma1_check(psi, 2.0)),
    "ckw": ((None, None), ckw_check),
}


@pytest.mark.parametrize("state", sorted(EDGE_STATES))
@pytest.mark.parametrize("mode", sorted(PUBLIC_BOUNDS))
def test_every_door_gives_the_public_verdict(mode, state, tmp_path, capsys):
    # a state from outside gets one verdict, whichever way it comes in: the
    # public bound, eval, a file-class fuzz and the replay of a file record
    # all accept it with the same margin, or all refuse it with the same error
    psi = EDGE_STATES[state]()
    refusal = REFUSALS.get((mode, state))
    path = str(tmp_path / "state.json")
    save_state(psi, path)
    (alpha, mu), bound = PUBLIC_BOUNDS[mode]
    cell = [] if alpha is None else ["--alpha", str(alpha)]
    cell += [] if mu is None else ["--mu", str(mu)]
    record = WitnessRecord(0, mode, "file", psi.n_qubits, 0, alpha, mu, 0.0, 0.0, 0.0, 0.0)
    try:
        margin = bound(psi).margin
    except MonoqError as exc:
        assert type(exc) is refusal, exc
        with pytest.raises(type(exc)) as replayed:
            replay_record(record, psi)
        assert str(replayed.value) == str(exc)
        commands = [["fuzz", "--mode", mode, "--class", "file", "--state", path, *cell]]
        if mode in ("monogamy", "polygamy"):
            commands.append(["eval", path, "--mode", mode, *cell])
        for argv in commands:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == f"error: {exc}\n", argv
        return
    assert refusal is None
    assert replay_record(record, psi) == margin
    out = str(tmp_path / "w.csv")
    assert main(["fuzz", "--mode", mode, "--class", "file", "--state", path, *cell, "--out", out]) in (0, 1)
    with open(out, encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["margin"] == fmt12(margin)
    if mode in ("monogamy", "polygamy"):
        capsys.readouterr()
        assert main(["eval", path, "--mode", mode, *cell]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["margin"] == margin


def test_cli_imports_no_scipy():
    # the command line starts on numpy alone
    code = ("import sys, monoq.cli; monoq.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "monoq.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "fuzz" in proc.stdout


def test_repeated_main_calls_match_fresh_processes(w_file, tmp_path, monkeypatch, capsys):
    # the parser is built once per process, so no argument or MONOQ_SEED of
    # one call may reach the next: each call prints what a fresh process does.
    # The fresh processes all start first and run beside the in-process calls;
    # the one that writes a CSV writes its own copy.
    fuzz3 = ["fuzz", "--qubits", "3", "--states", "6"]
    runs = [
        (fuzz3 + ["--mode", "ckw", "--class", "wclass", "--tolerance", "1e-3",
                  "--out", str(tmp_path / "a.csv")], "11"),
        (fuzz3 + ["--mode", "ckw", "--seed", "5"], "11"),
        (fuzz3 + ["--mode", "ckw"], "12"),
        (fuzz3 + ["--mode", "ckw"], None),
        (fuzz3 + ["--mode", "monogamy", "--alpha", "0.9", "--mu", "2,3"], "3"),
        (fuzz3 + ["--mode", "monogamy"], "3"),
        (["falpha", "--alpha", "0.9,1.2", "--points", "3"], None),
        (["falpha", "--points", "3"], None),
        (["eval", w_file, "--mu", "0.5", "--focus", "B"], None),
        (["eval", w_file], None),
        (["fuzz", "--mode", "ckw", "--qubits", "11"], None),
    ]
    base_env = {key: value for key, value in os.environ.items() if key != "MONOQ_SEED"}
    fresh = []
    for argv, env_seed in runs:
        env = base_env if env_seed is None else {**base_env, "MONOQ_SEED": env_seed}
        argv = [str(tmp_path / "b.csv") if arg == str(tmp_path / "a.csv") else arg for arg in argv]
        fresh.append(subprocess.Popen([sys.executable, "-m", "monoq.cli", *argv], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    try:
        for (argv, env_seed), proc in zip(runs, fresh):
            if env_seed is None:
                monkeypatch.delenv("MONOQ_SEED", raising=False)
            else:
                monkeypatch.setenv("MONOQ_SEED", env_seed)
            code = main(argv)
            captured = capsys.readouterr()
            out, err = proc.communicate()
            assert (code, captured.out, captured.err) == (proc.returncode, out, err), argv
    finally:
        for proc in fresh:
            proc.kill()
            proc.wait()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
