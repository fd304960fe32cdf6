import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense.lstm import (LstmDetector, ModelError, evaluate_loss, load_model,
                             lstm_train, save_model)

from conftest import float64_detector


def test_zero_weights_scores_equal_bias():
    det = LstmDetector(input_dim=4, hidden_size=3, seed=0)
    for name in det.param_names():
        det.params[name] = np.zeros_like(det.params[name])
    det.params["b_out"] = np.array([0.3, -0.2])
    segment = np.random.default_rng(0).normal(size=(6, 4))
    assert np.allclose(det.forward(segment), [0.3, -0.2], atol=1e-15)


def _reference_forward(det, segment):
    """Plain-python transcription of the stacked recurrence."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_dim = det.hidden_size
    layer_input = [list(map(float, row)) for row in segment]
    for layer in range(det.num_layers):
        wx = det.params[f"wx{layer}"]
        wh = det.params[f"wh{layer}"]
        b = det.params[f"b{layer}"]
        h = [0.0] * h_dim
        c = [0.0] * h_dim
        outputs = []
        for x in layer_input:
            z = [sum(wx[r][i] * x[i] for i in range(len(x)))
                 + sum(wh[r][i] * h[i] for i in range(h_dim)) + b[r]
                 for r in range(4 * h_dim)]
            new_h, new_c = [], []
            for u in range(h_dim):
                gi = sig(z[u])
                gf = sig(z[h_dim + u])
                gg = math.tanh(z[2 * h_dim + u])
                go = sig(z[3 * h_dim + u])
                cu = gf * c[u] + gi * gg
                new_c.append(cu)
                new_h.append(go * math.tanh(cu))
            h, c = new_h, new_c
            outputs.append(h)
        layer_input = outputs
    w_out, b_out = det.params["w_out"], det.params["b_out"]
    return [sum(w_out[k][i] * h[i] for i in range(h_dim)) + float(b_out[k])
            for k in range(det.num_classes)]


def test_forward_matches_reference_recurrence():
    det = float64_detector(input_dim=3, hidden_size=4, seed=5)
    rng = np.random.default_rng(2)
    for name in det.param_names():  # tiny fixed weights
        det.params[name] = rng.uniform(-0.3, 0.3, det.params[name].shape)
    batch = rng.normal(size=(3, 5, 3))  # batch != steps: rows must not mix
    for row, segment in zip(det.forward_batch(batch), batch):
        expected = np.array(_reference_forward(det, segment))
        assert np.max(np.abs(row - expected)) < 1e-10
        assert np.max(np.abs(det.forward(segment) - expected)) < 1e-10  # a batch of one


def test_saturated_gates_stay_finite_without_fp_errors():
    det = LstmDetector(input_dim=3, hidden_size=4, seed=0)
    rng = np.random.default_rng(8)
    for name in det.param_names():
        det.params[name] = np.zeros_like(det.params[name])
    for layer in range(det.num_layers):  # every pre-activation is +-1e3
        det.params[f"b{layer}"] = rng.choice([-1e3, 1e3], det.params[f"b{layer}"].shape)
    det.params["w_out"] = rng.uniform(-1.0, 1.0, det.params["w_out"].shape)
    with np.errstate(all="raise"):
        scores = det.forward_batch(rng.normal(size=(2, 6, 3)))
    assert np.all(np.isfinite(scores))


def test_head_permutation_permutes_scores():
    det = LstmDetector(input_dim=5, hidden_size=4, seed=1)
    segment = np.random.default_rng(3).normal(size=(7, 5))
    base = det.forward(segment)
    det.params["w_out"] = det.params["w_out"][::-1].copy()
    det.params["b_out"] = det.params["b_out"][::-1].copy()
    assert np.allclose(det.forward(segment), base[::-1], atol=1e-12)


def test_gradient_check_against_central_differences():
    det = float64_detector(input_dim=3, hidden_size=6, seed=7)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 3))  # 3 samples, 4 steps
    y = np.array([0, 1, 0])
    _, grads = det.loss_and_grads(x, y)
    h = 1e-5  # balances truncation against float64 cancellation in the loss
    worst = 0.0
    for name in det.param_names():
        param = det.params[name]
        flat = param.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            loss_plus, _ = det.loss_and_grads(x, y)
            flat[idx] = orig - h
            loss_minus, _ = det.loss_and_grads(x, y)
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2 * h)
            analytic = grads[name].ravel()[idx]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4, f"max relative gradient error {worst}"


def test_zero_learning_rate_keeps_parameters():
    det = LstmDetector(input_dim=3, hidden_size=4, seed=0)
    before = {k: v.copy() for k, v in det.params.items()}
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 5, 3))
    y = np.array([0, 1] * 4)
    lstm_train(det, x, y, epochs=2, batch_size=4, learning_rate=0.0, rng_seed=0)
    for name, value in det.params.items():
        assert np.array_equal(value, before[name])


def test_training_keeps_parameters_float32():
    """Adam's moments and updates follow the parameters' dtype: no step upcasts them."""
    det = LstmDetector(input_dim=3, hidden_size=4, seed=0)
    assert {p.dtype for p in det.params.values()} == {np.dtype(np.float32)}
    before = {name: p.copy() for name, p in det.params.items()}
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 5, 3))  # float64 input
    lstm_train(det, x, np.array([0, 1] * 4), epochs=2, batch_size=4, learning_rate=1e-3,
               rng_seed=0)
    for name, p in det.params.items():
        assert p.dtype == np.float32, name
        assert not np.array_equal(p, before[name]), name  # the steps did update it


def test_training_is_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 6, 4))
    y = np.array([0, 1] * 6)

    def run():
        det = LstmDetector(input_dim=4, hidden_size=5, seed=3)
        lstm_train(det, x, y, epochs=3, batch_size=5, learning_rate=1e-3, rng_seed=9)
        return det

    a, b = run(), run()
    for name in a.param_names():
        assert np.array_equal(a.params[name], b.params[name])


def test_loss_decreases_on_separable_toy():
    rng = np.random.default_rng(4)
    n = 20
    x = np.zeros((n, 6, 3))
    y = np.array([0, 1] * (n // 2))
    x[y == 0, :, 0] = 2.0
    x[y == 1, :, 2] = 2.0
    x += rng.normal(0.0, 0.05, x.shape)
    det = LstmDetector(input_dim=3, hidden_size=8, seed=2)
    _, history = lstm_train(det, x, y, epochs=10, batch_size=10,
                            learning_rate=5e-3, rng_seed=0)
    losses = [h["train_loss"] for h in history]
    assert all(losses[i + 1] <= losses[i] + 1e-9 for i in range(9))
    assert losses[-1] < losses[0]


# Two epochs at the shapes of the benchmark's train workload: 40 segments of
# 40 steps x 100 Doppler bins, hidden size 128, batches of 10.
_TRAIN_AND_HASH = """
import hashlib
import numpy as np
from rotorsense.lstm import LstmDetector, lstm_train
rng = np.random.default_rng(12)
x = rng.random((40, 40, 100))
y = np.arange(40) % 2
det = LstmDetector(input_dim=100, hidden_size=128, seed=4)
lstm_train(det, x, y, epochs=2, batch_size=10, learning_rate=1e-3, rng_seed=5)
digest = hashlib.sha256()
for name in det.param_names():
    digest.update(det.params[name].tobytes())
digest.update(det.forward_batch(x).tobytes())
print(digest.hexdigest())
print(sorted({p.dtype.name for p in det.params.values()}))
"""


def test_training_bytes_do_not_depend_on_blas_threads():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(_TRAIN_AND_HASH, {})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _TRAIN_AND_HASH], env=env,
                         capture_output=True, text=True, check=True)
    here, there = out.getvalue().split("\n"), run.stdout.split("\n")
    assert here[1] == there[1] == "['float32']"  # not a float64 fallback
    assert here[0] == there[0]


@pytest.mark.parametrize("input_dim, hidden_size", [
    (1, 2049), (100, 10**7), (2**22 + 1, 1), (2**40, 2**40)])
def test_oversized_detector_rejected_before_any_draw_or_allocation(monkeypatch, input_dim,
                                                                    hidden_size):
    """4 * H * max(D, H) weights in the largest matrix may not exceed MAX_ELEMENTS; the
    check runs before the generator exists, so nothing is drawn or allocated."""
    def no_draws(*args):
        raise AssertionError("the detector drew weights")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ModelError, match=f"hidden_size {hidden_size} with input_dim "
                                         f"{input_dim} gives a weight matrix of "
                                         f"{4 * hidden_size * max(input_dim, hidden_size)} "
                                         f"elements, more than 16777216"):
        LstmDetector(input_dim, hidden_size)


def test_detector_size_bound_is_inclusive(monkeypatch):
    """4 * 4 * 2**20 is exactly MAX_ELEMENTS: no error, the draw is reached."""
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(np.random, "default_rng", reached)
    with pytest.raises(Reached):
        LstmDetector(2**20, 4)


def test_single_class_dataset_rejected():
    det = LstmDetector(input_dim=2, hidden_size=3, seed=0)
    x = np.zeros((4, 3, 2))
    with pytest.raises(ModelError, match="single class"):
        lstm_train(det, x, np.zeros(4, dtype=int), epochs=1)


@pytest.mark.parametrize("labels", [[1, 1, 1], []], ids=["ones", "empty"])
def test_other_single_class_and_empty_datasets_rejected(labels):
    det = LstmDetector(input_dim=2, hidden_size=3, seed=0)
    x = np.zeros((len(labels), 3, 2))
    with pytest.raises(ModelError, match="single class"):
        lstm_train(det, x, np.array(labels, dtype=int), epochs=1)


def test_history_includes_validation_loss():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 4, 3))
    y = np.array([0, 1] * 5)
    det = LstmDetector(input_dim=3, hidden_size=4, seed=0)
    _, history = lstm_train(det, x, y, epochs=2, batch_size=5,
                            learning_rate=1e-4, rng_seed=0, val_data=(x, y))
    assert all("val_loss" in h for h in history)
    assert history[-1]["val_loss"] == pytest.approx(evaluate_loss(det, x, y))


def test_evaluate_loss_matches_manual_log_softmax():
    det = float64_detector(input_dim=3, hidden_size=4, seed=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 4, 3))
    y = np.array([0, 1, 1, 0, 1])
    scores = det.forward_batch(x)
    manual = -np.mean([math.log(math.exp(s[yi]) / (math.exp(s[0]) + math.exp(s[1])))
                       for s, yi in zip(scores, y)])
    assert evaluate_loss(det, x, y) == pytest.approx(manual, rel=1e-12)


def test_model_file_round_trip(tmp_path):
    det = LstmDetector(input_dim=7, hidden_size=5, seed=8)
    det.training_config = {"epochs": 3, "learning_rate": 5e-5}
    path = tmp_path / "model.npz"
    save_model(det, path)
    loaded = load_model(path)
    assert loaded.input_dim == 7 and loaded.hidden_size == 5
    assert loaded.training_config["epochs"] == 3
    for name in det.param_names():
        assert loaded.params[name].dtype == np.float32
        assert np.array_equal(loaded.params[name], det.params[name])
    segment = np.random.default_rng(1).normal(size=(4, 7))
    assert np.array_equal(loaded.forward(segment), det.forward(segment))


def test_float64_model_file_loads_as_float32(tmp_path):
    """A model file whose arrays are float64 loads as their float32 cast."""
    det = LstmDetector(input_dim=7, hidden_size=5, seed=8)
    path = tmp_path / "model.npz"
    save_model(det, path)
    with np.load(path) as data:
        manifest = data["manifest"]
    rng = np.random.default_rng(4)
    stored = {name: rng.normal(size=p.shape) for name, p in det.params.items()}  # float64
    np.savez(path, manifest=manifest, **stored)
    loaded = load_model(path)
    for name, arr in stored.items():
        assert loaded.params[name].dtype == np.float32
        assert np.array_equal(loaded.params[name], arr.astype(np.float32))


@pytest.mark.parametrize("key, value", [("normalize", False), ("num_layers", 3)])
def test_load_model_rejects_other_fixed_values(tmp_path, key, value):
    path = tmp_path / "model.npz"
    save_model(LstmDetector(input_dim=3, hidden_size=2, seed=0), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    manifest = json.loads(bytes(arrays.pop("manifest")).decode())
    manifest[key] = value
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)
    with pytest.raises(ModelError, match=f"model manifest {key} is {value!r}"):
        load_model(path)


def test_forward_shape_checks():
    det = LstmDetector(input_dim=4, hidden_size=3, seed=0)
    with pytest.raises(ModelError, match="expected"):
        det.forward(np.zeros((5, 3)))  # wrong input dim
    with pytest.raises(ModelError, match="2-d"):
        det.forward(np.zeros(4))


def _saved_model_bytes():
    buffer = io.BytesIO()
    save_model(LstmDetector(input_dim=7, hidden_size=4, seed=0), buffer)
    return buffer.getvalue()


_MODEL_BYTES = _saved_model_bytes()


def _overwrite(edits):
    blob = bytearray(_MODEL_BYTES)
    for at, value in edits:
        blob[at] = value
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.integers(0, len(_MODEL_BYTES) - 1).map(lambda cut: _MODEL_BYTES[:cut]),
    st.lists(st.tuples(st.integers(0, len(_MODEL_BYTES) - 1), st.integers(0, 255)),
             min_size=1, max_size=3).map(_overwrite)))
def test_damaged_model_file_loads_or_raises_model_error(blob):
    """A truncated or overwritten model file never escapes as a non-model error."""
    try:
        load_model(io.BytesIO(blob))
    except ModelError:
        pass


def test_truncated_model_file_is_closed(tmp_path):
    """numpy leaves open a handle it opened for an archive it cannot read."""
    path = tmp_path / "model.npz"
    path.write_bytes(_MODEL_BYTES[:len(_MODEL_BYTES) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ModelError, match="not a readable archive"):
            load_model(path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
