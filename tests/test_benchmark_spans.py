"""Every per-layer span the benchmark names must resolve to a monoq function.

The benchmark's tracer patches each span by name, on every run; a refactor
that renames or moves a traced function, or changes what a tracer wrapper
reads from it, fails here instead of in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from monoq import cli, save_state, w_state

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
SPAN_NAMES = sorted(
    name[: -len(".calls")] for name in PER_LAYER
    if name.endswith(".calls") and name not in SPANS.COUNTERS
)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_resolves_to_a_callable(name):
    owner, attribute = SPANS.resolve(name)
    assert callable(getattr(owner, attribute))


def test_every_self_time_has_a_span():
    self_times = {name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")}
    assert self_times <= set(SPAN_NAMES)


def _bindings() -> dict:
    """Every attribute of the monoq modules, of the traced classes and of np.linalg."""
    owners = [m for key, m in sys.modules.items() if key == "monoq" or key.startswith("monoq.")]
    owners += [SPANS.resolve(name)[0] for name in SPAN_NAMES] + [np.linalg]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_counts_cli_runs_and_restores_every_binding(tmp_path, capsys):
    # the wrappers read detect_ordering(...).satisfied and the stream of
    # write_records_csv(self, stream); a change to either fails every run
    before = _bindings()
    path = tmp_path / "w3.json"
    save_state(w_state(3), path)
    tracer = SPANS.Tracer(SPAN_NAMES, record=False)
    with tracer.installed():
        assert cli.main(["fuzz", "--mode", "polygamy", "--class", "wclass", "--qubits", "4",
                         "--states", "20", "--out", str(tmp_path / "w.csv")]) in (0, 1)
        assert cli.main(["eval", str(path), "--out", str(tmp_path / "eval.json")]) == 0
    capsys.readouterr()
    for name in ("cli.main", "harness.run_campaign", "harness.CampaignResult.write_records_csv",
                 "monogamy.detect_ordering", "harness.write_records_csv.bytes"):
        assert tracer.counts[name] > 0, name
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
