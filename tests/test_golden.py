"""Golden outputs: witness CSV bytes and summary values of small seeded campaigns.

Each case pins the sha256 of the witness CSV and of the JSON of every
summary key listed in ``SUMMARY_KEYS`` (floats print as ``repr``, so a
change in the last bit of any value shows).  A refactor of the campaign
path must leave every line here unchanged; a new summary key is not
hashed.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from monoq import CampaignConfig, build_wclass, run_campaign, save_state
from monoq import harness

SUMMARY_KEYS = ["mode", "state_class", "n_qubits", "seed", "tolerance", "n_sampled",
                "n_hypothesis_satisfied", "n_skipped", "n_records", "n_violations",
                "min_margin", "mean_tightness_gain", "worst", "split_histogram", "skip_reasons"]

# partners (0.7, 0.3, 0.25, 0.25): the tie in the last two gives the split at 1
SPLIT_B = (0.7, 0.3, 0.25, 0.25)

CASES = {
    "ckw-haar-q3": (dict(mode="ckw", n_states=40, n_qubits=3, seed=101), None),
    "ckw-haar-q8": (dict(mode="ckw", n_states=6, n_qubits=8, seed=102), None),
    "lemma1-haar-q3": (dict(mode="lemma1", n_states=30, n_qubits=3, seed=103), None),
    "monogamy-haar-q3": (dict(mode="monogamy", n_states=40, n_qubits=3, seed=104), None),
    "monogamy-wclass-q3": (dict(mode="monogamy", n_states=40, n_qubits=3, seed=105,
                                state_class="wclass"), None),
    "monogamy-wclass-q5": (dict(mode="monogamy", n_states=60, n_qubits=5, seed=106,
                                state_class="wclass"), None),
    "polygamy-wclass-q4": (dict(mode="polygamy", n_states=50, n_qubits=4, seed=107), None),
    "polygamy-wclass-q6": (dict(mode="polygamy", n_states=60, n_qubits=6, seed=108), None),
    "scalar-default-grid": (dict(mode="scalar"), None),
    "polygamy-file-split": (dict(mode="polygamy", state_class="file", state_file="split.json"),
                            None),
    "monogamy-file-split": (dict(mode="monogamy", state_class="file", state_file="split.json"),
                            None),
    # chunks of 7 states: rows come from 8 stacks
    "monogamy-haar-q3-chunked": (dict(mode="monogamy", n_states=50, n_qubits=3, seed=110),
                                 7 * 2**3),
    # pair lambdas from the thin QR factor (5 qubits on); lemma1 campaigns
    # take 3 qubits only, so both are ckw
    "ckw-haar-q5": (dict(mode="ckw", n_states=40, n_qubits=5, seed=111), None),
    "ckw-haar-q6": (dict(mode="ckw", n_states=30, n_qubits=6, seed=112), None),
}

GOLDEN = {
    "ckw-haar-q3": ("8ba28e09455fcf4be1b00d6d99d30a748dfa44acdd8762f52c205319d2059f1c",
                   "5bbd7889380b0ff2d7cd85fb3b46313247ae94615b82bde82a43898db5bd976e"),
    "ckw-haar-q8": ("85384cb8df1bcd875cdeaf55a9d3cf3facbf93eea5c441e9c19346af86ae0c28",
                   "6cd8143d41d2a61b0ce945686edc0173fc431e0629f0bd2089564c4787dac593"),
    "lemma1-haar-q3": ("4ab246706e8aab9047ef52a40a74e05c47e5355ce0ed16dce20650e15cbb575f",
                      "07d779e7d652c1f6ebccbf5fa0d80428c62e222d07b5c25e027ce29e7150d2ff"),
    "monogamy-haar-q3": ("11baa2baac0766591283cf769c3677de9e557e6840baca638a8f15e5fee78074",
                        "673b58195a9cb40519909e0a43c7daf7a4728833e832dac062ae1d6b8f9f888a"),
    "monogamy-wclass-q3": ("7efa6ab098195860dfb29a12deb463bcb91510f713e9ab3b355b589fd9d312a0",
                          "0153d454008a1efa68b371c793691978684f3c698716a4c38a6117cfe2302433"),
    "monogamy-wclass-q5": ("59e7d80cc4346623b53647c4aea4768638e2c58c8e81190c5ab34fc7b5624255",
                          "1e95633bc006ca35868bac8eae12b538d5ea7fb3e3942b40f3a4aed3028926d4"),
    "polygamy-wclass-q4": ("ee755c9418e8ad9c185b5749d9f6bad4dcd721856f31da2337b1299103d39569",
                          "03ba8b6313fd293538f5b4365bdcdf053cd36fd0158eb8882697b6730c72c626"),
    "polygamy-wclass-q6": ("fea9595df190974197c4a387e5f467dec19f007d7dc95ae18633077d257e2d2a",
                          "ce2d909b6208d4a7fe9835ab456926cf07a3e32a8c3fe9c160f2ee7fa397470c"),
    "scalar-default-grid": ("1b0173df9f5af5170b327da5dd7af56dca348b2cc20e59f14c56688d7df27e42",
                           "35d1aab948255652ce53a8ca8d113f65b5e2eb54f498313e36ca9ba54b54bcef"),
    "polygamy-file-split": ("bb5d968af4213bc065e93532ad227826c066d3672809116b4aed9cacdca5adbd",
                           "a1418c83766a3403dedf04107001d6939a4445fb5f1c1bb5eb151ef06dac5ce8"),
    "monogamy-file-split": ("3e5fe129efa975aae864d20ba3be215ffdf0125e26d2f88f0b9f4bd47d39fbdf",
                           "cc782130c93b44a4d529d05eb0e6a4f271b668adb97196870dd9f2595b4fd523"),
    "monogamy-haar-q3-chunked": ("817f4800f4028b69e86b3d4368ea355a514089a3ffb832d22f3b61b8ce054f4b",
                                "748bd84d88abdb7ef8f682eff1487210594f2eb5b23ab095b4421f3b41e99855"),
    "ckw-haar-q5": ("6e4fa2f119fb53fc1111bc92add2999044bc1cf44574cb334af0c266790c843a",
                   "ff1a78b11d793c2fc92ffa7f43ef2c4970c189acb5fc5d65b90c80c260da0d37"),
    "ckw-haar-q6": ("bd46afa1049944edf23050ae171fb05f97aa55d31899617cb07e96ee901b523e",
                   "77e7709ef41cae71b5bc63e17047da3b039503b1595338b7b59614e8d0088fd7"),
}


def _outputs(case, tmp_path, monkeypatch):
    settings, chunk = CASES[case]
    if chunk is not None:
        monkeypatch.setattr(harness, "CHUNK_AMPLITUDES", chunk)
    if settings.get("state_class") == "file":
        monkeypatch.chdir(tmp_path)
        save_state(build_wclass(np.sqrt(0.295), SPLIT_B)[1], settings["state_file"])
    result = run_campaign(CampaignConfig(**settings))
    out = io.StringIO()
    result.write_records_csv(out)
    summary = result.summary()
    pinned = json.dumps({key: summary[key] for key in SUMMARY_KEYS})
    return (hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(pinned.encode()).hexdigest())


@pytest.mark.parametrize("case", list(CASES))
def test_campaign_outputs_are_pinned(case, tmp_path, monkeypatch):
    assert _outputs(case, tmp_path, monkeypatch) == GOLDEN[case]
