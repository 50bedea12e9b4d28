import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoq import haar_random_state, save_state, w_state
from monoq.cli import main
from monoq.harness import reference_schmidt_state
from monoq.core import StateVector


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

    @pytest.mark.parametrize("mode", ["scalar", "lemma1", "monogamy"])
    def test_negative_power_exits_2(self, mode, capsys):
        # the scalar grid took 0.0**mu before rejecting mu: a divide-by-zero warning
        assert main(["fuzz", "--mode", mode, "--states", "2", "--mu", "1,-0.5"]) == 2
        assert "mu values must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["ckw", "scalar", "monogamy"])
    @pytest.mark.parametrize("alpha", ["1000", "0", "-1"])
    def test_order_outside_range_exits_2(self, mode, alpha, capsys):
        # ckw and scalar campaigns read no order, and used to run on any
        assert main(["fuzz", "--mode", mode, "--states", "2", f"--alpha={alpha}"]) == 2
        assert "alpha values must be in (0, 100]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--qubits", "0"], ["--qubits", "11"], ["--qubits", "1000000"],
         ["--mode", "monogamy", "--class", "wclass", "--qubits", "2"],
         ["--mode", "polygamy", "--class", "wclass", "--qubits", "11"]],
        ids=["haar-0", "haar-11", "haar-1000000", "wclass-2", "wclass-11"],
    )
    def test_qubit_count_out_of_range_exits_2(self, extra, capsys, monkeypatch):
        # the count is checked with the settings, before a seed or a 2**n stack is made
        def no_sampling(*args):
            raise AssertionError("a state was sampled")

        monkeypatch.setattr("monoq.harness.derive_seed", no_sampling)
        assert main(["fuzz", "--mode", "ckw", "--states", "3", *extra]) == 2
        assert "n_qubits" in capsys.readouterr().err

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

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOQ_SEED", "777")
        main(["fuzz", "--mode", "ckw", "--states", "5", "--qubits", "3"])
        assert json.loads(capsys.readouterr().out)["seed"] == 777

    def test_bad_env_seed(self, capsys, monkeypatch):
        for value in ("abc", "-5"):
            monkeypatch.setenv("MONOQ_SEED", value)
            assert main(["fuzz", "--mode", "ckw", "--states", "5"]) == 2

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
