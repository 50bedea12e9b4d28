"""The batched seed and stream machinery, pinned to numpy's own generators.

Campaigns keep the documented seed contract: state ``index`` of a campaign
with master seed ``m`` is drawn from ``default_rng(seed)`` with ``seed =
SeedSequence([m, index]).generate_state(1, np.uint64)[0]``.  They compute it
per chunk instead: ``harness.derive_seeds`` hashes a whole index range,
``core.pcg64_states`` gives every seed's PCG64 start state, and one local
generator draws each row.  Each step is compared here with numpy itself.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoq import CampaignConfig, run_campaign
from monoq.core import haar_amplitudes, pcg64_states, unit_gaussian_rows
from monoq.errors import ConfigError
from monoq.harness import derive_seeds
from monoq.wclass import wclass_coefficients

MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7, 2**3000 + 5)


def _seed_sequence_seeds(master, start, stop):
    return [int(np.random.SeedSequence([master, i]).generate_state(1, np.uint64)[0])
            for i in range(start, stop)]


def _default_rng_rows(seeds, width, sort_partners=False):
    """The documented draw, one ``default_rng`` and two half-size ``normal`` calls per seed."""
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=width) + 1j * rng.normal(size=width)
        v = v / np.linalg.norm(v)
        if sort_partners:
            b = v[1:]
            v[1:] = b[np.argsort(-np.abs(b), kind="stable")]
        rows.append(v)
    return np.array(rows)


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize(
    "start, stop",
    [(0, 300), (2**32 - 4, 2**32 + 4), (2**32 - 1, 2**32 + 1), (2**32, 2**32 + 3), (2**64 - 3, 2**64)],
)
def test_derive_seeds_match_seed_sequence(master, start, stop):
    seeds = derive_seeds(master, start, stop)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == _seed_sequence_seeds(master, start, stop)


@settings(max_examples=25, deadline=None)
@given(master=st.integers(0, 2**130), start=st.integers(0, 2**64 - 40), length=st.integers(0, 40))
def test_derive_seeds_match_seed_sequence_anywhere(master, start, length):
    assert derive_seeds(master, start, start + length).tolist() == _seed_sequence_seeds(
        master, start, start + length
    )


def test_derive_seeds_rejects_what_it_cannot_hash():
    with pytest.raises(ConfigError):
        derive_seeds(-1, 0, 3)
    with pytest.raises(ConfigError):
        derive_seeds(5, 2**64 - 1, 2**64 + 1)


@settings(max_examples=20, deadline=None)
@given(random_seeds=st.lists(st.integers(0, 2**64 - 1), max_size=30))
def test_pcg64_states_match_numpy(random_seeds):
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + random_seeds
    states, incs = pcg64_states(np.array(seeds, dtype=np.uint64))
    for seed, state, inc in zip(seeds, states, incs, strict=True):
        assert type(state) is int and type(inc) is int
        assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}


_MASK64 = 2**64 - 1
_PCG64_MULT_LO = 0x4385DF649FCCF645
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _low_word_carries(seed):
    """Whether the low-word sums initstate + inc and x * multiplier + inc of PCG64(seed) carry."""
    w0, w1, w2, w3 = map(int, np.random.SeedSequence(seed).generate_state(4, np.uint64))
    inc_lo = (w3 << 1 | 1) & _MASK64
    x_lo = (w1 + inc_lo) & _MASK64
    return w1 + inc_lo > _MASK64, (x_lo * _PCG64_MULT_LO & _MASK64) + inc_lo > _MASK64


def test_pcg64_limbs_match_numpy_at_boundaries_and_carries():
    seeds = BOUNDARY_SEEDS + list(range(2, 40))
    # every combination of the two low-word carries is among the seeds
    assert len({_low_word_carries(seed) for seed in seeds}) == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 limbs wrap without an overflow warning
        states, incs = pcg64_states(np.array(seeds, dtype=np.uint64))
        one_state, one_inc = pcg64_states(np.array([2**64 - 1], dtype=np.uint64))
    for seed, state, inc in zip(seeds, states, incs, strict=True):
        assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}
    assert (one_state[0], one_inc[0]) == (states[5], incs[5])


STACKED_NORM_WIDTHS = list(range(2, 12)) + [16, 32, 128, 1024]


@pytest.mark.parametrize("n_rows", [1, 2, 45, 250])
@pytest.mark.parametrize("width", STACKED_NORM_WIDTHS)
def test_stacked_row_norms_match_linalg_norm(width, n_rows):
    # each row's norm is one stacked matmul of the strided real and
    # imaginary views, byte for byte np.linalg.norm of that row alone
    seeds = derive_seeds(width, 0, n_rows).tolist()
    assert unit_gaussian_rows(seeds, width).tobytes() == _default_rng_rows(seeds, width).tobytes()


@pytest.mark.parametrize("width", [1, 2, 17, 1024])
def test_unit_rows_match_default_rng_and_linalg_norm(width):
    # the row norm is np.linalg.norm's complex formula without its wrapper
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + derive_seeds(9, 0, 20).tolist()
    assert unit_gaussian_rows(seeds, width).tobytes() == _default_rng_rows(seeds, width).tobytes()


@pytest.mark.parametrize("n_qubits", range(1, 11))
def test_haar_stack_matches_default_rng(n_qubits):
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + derive_seeds(7, 0, 20).tolist()
    stack = haar_amplitudes(n_qubits, seeds)
    assert stack.tobytes() == _default_rng_rows(seeds, 2**n_qubits).tobytes()


@pytest.mark.parametrize("n_parties", range(3, 11))
def test_wclass_stack_matches_default_rng(n_parties):
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + derive_seeds(8, 0, 40).tolist()
    stack = wclass_coefficients(n_parties, seeds)
    assert stack.tobytes() == _default_rng_rows(seeds, n_parties, sort_partners=True).tobytes()


def test_campaign_builds_no_generator_per_state(monkeypatch):
    # seeds, streams and stacks are made per chunk, so the number of
    # SeedSequence, bit generator and Generator constructions does not grow
    # with the number of states
    counts = {}

    def counting(name):
        original = getattr(np.random, name)

        def construct(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return construct

    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, counting(name))

    def constructions(mode, state_class, n_states):
        counts.clear()
        config = CampaignConfig(mode=mode, n_states=n_states, n_qubits=3, seed=11,
                                state_class=state_class)
        assert run_campaign(config).n_sampled == n_states
        return dict(counts)

    for mode, state_class in (("ckw", "haar"), ("polygamy", "wclass")):
        few = constructions(mode, state_class, 10)
        assert constructions(mode, state_class, 1000) == few
        assert few == {"Generator": 1, "PCG64": 1}
