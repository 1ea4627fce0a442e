"""Quick tests of the benchmark's own checkers and of BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from eirm import nn  # noqa: E402
from eirm.core import Rng  # noqa: E402


def test_forward_agrees_with_eirm_on_random_elu_net():
    net = nn.make_mlp((12, 9, 7, 3), Rng(4), hidden_activation="elu")
    for layer in net.layers:
        layer.bias += Rng(5).normal(size=layer.bias.shape)
    x = Rng(6).normal(scale=2.0, size=(50, 12))
    expected, _ = nn.forward(net, x, train_mode=False)
    np.testing.assert_allclose(checks.forward(checks.mlp_layers(net), x), expected,
                               rtol=1e-12, atol=1e-12)


def test_csv_check_rejects_a_row_one_field_short(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,turn_owner,ens_train_acc,test_acc\n1,env0,0.5,\n2,env1,0.5\n")
    with pytest.raises(checks.MalformedTrace, match="line 3 has 3 fields"):
        checks.read_csv(path)


def test_least_squares_recovers_gamma_on_noiseless_data():
    rng = np.random.default_rng(0)
    gamma = np.array([1.0, -0.5, 0.25])
    x = rng.normal(size=(500, 3))
    np.testing.assert_allclose(checks.least_squares(x, x @ gamma), gamma, atol=1e-12)


def test_benchmark_json_matches_the_launcher():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
