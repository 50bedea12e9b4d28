"""Every per-layer span the benchmark names must resolve to a monoq function.

The benchmark's tracer patches each span by name; a refactor that renames or
moves a traced function fails here instead of in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
