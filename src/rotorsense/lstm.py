"""Stacked LSTM sequence classifier, implemented from scratch in numpy.

Two stacked gated recurrent layers (input, forget, output gates plus a tanh
candidate writing a cell state), hidden size 128 by default, followed by an
affine head mapping the final hidden state to class scores. Each time step
consumes one Doppler spectrum, so the input dimension equals the Doppler bin
count and a segment is consumed time-major as [steps, bins].

Training minimizes mean softmax cross-entropy with Adam. Everything is plain
float64 numpy with a fixed update order, so a fixed seed and batch order
reproduce final parameters bit for bit. Gradients come from full
backpropagation through time; tests check them against central finite
differences.

Weights initialize uniform in +-1/sqrt(hidden); biases start at zero except
the forget gate (1.0, the usual stabilizer).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """Shape/manifest mismatch or invalid training input."""


MODEL_SCHEMA_VERSION = 1


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LstmDetector:
    """Two-layer LSTM + affine head scoring the two classes; depth and classes are fixed."""

    num_layers = 2
    num_classes = 2

    def __init__(self, input_dim: int, hidden_size: int = 128, seed: int = 0):
        if min(input_dim, hidden_size) < 1:
            raise ModelError("input_dim and hidden_size must be >= 1")
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.seed = seed
        self.training_config: dict = {}

        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(hidden_size)
        self.params: dict[str, np.ndarray] = {}
        for layer in range(self.num_layers):
            d_in = input_dim if layer == 0 else hidden_size
            self.params[f"wx{layer}"] = rng.uniform(-bound, bound, (4 * hidden_size, d_in))
            self.params[f"wh{layer}"] = rng.uniform(-bound, bound, (4 * hidden_size, hidden_size))
            b = np.zeros(4 * hidden_size)
            b[hidden_size:2 * hidden_size] = 1.0  # forget gate
            self.params[f"b{layer}"] = b
        self.params["w_out"] = rng.uniform(-bound, bound, (self.num_classes, hidden_size))
        self.params["b_out"] = np.zeros(self.num_classes)

    def param_names(self) -> list[str]:
        names = []
        for layer in range(self.num_layers):
            names.extend((f"wx{layer}", f"wh{layer}", f"b{layer}"))
        names.extend(("w_out", "b_out"))
        return names

    # --- forward -----------------------------------------------------------

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"expected input [batch, steps, {self.input_dim}], got {x.shape}")
        if x.shape[1] < 1:
            raise ModelError("sequence must contain at least one step")
        return x

    def _forward_cached(self, x: np.ndarray):
        """Returns (scores [B, C], cache) for backprop."""
        b, t_steps, _ = x.shape
        h_dim = self.hidden_size
        cache = []
        layer_in = x
        for layer in range(self.num_layers):
            wx, wh, bias = (self.params[f"wx{layer}"], self.params[f"wh{layer}"],
                            self.params[f"b{layer}"])
            h = np.zeros((b, h_dim))
            c = np.zeros((b, h_dim))
            steps = []
            outs = np.empty((b, t_steps, h_dim))
            for t in range(t_steps):
                xt = layer_in[:, t, :]
                z = xt @ wx.T + h @ wh.T + bias
                gi = _sigmoid(z[:, :h_dim])
                gf = _sigmoid(z[:, h_dim:2 * h_dim])
                gg = np.tanh(z[:, 2 * h_dim:3 * h_dim])
                go = _sigmoid(z[:, 3 * h_dim:])
                c_new = gf * c + gi * gg
                tanh_c = np.tanh(c_new)
                h_new = go * tanh_c
                steps.append((xt, h, c, gi, gf, gg, go, tanh_c))
                h, c = h_new, c_new
                outs[:, t, :] = h
            cache.append((steps, outs))
            layer_in = outs
        scores = h @ self.params["w_out"].T + self.params["b_out"]
        return scores, cache, h

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        scores, _, _ = self._forward_cached(self._check_batch(x))
        return scores

    def forward(self, segment: np.ndarray) -> np.ndarray:
        """Class scores for one [steps, input_dim] segment."""
        segment = np.asarray(segment, dtype=float)
        if segment.ndim != 2:
            raise ModelError(f"expected a 2-d segment, got shape {segment.shape}")
        return self.forward_batch(segment[None])[0]

    # --- loss and gradients --------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy over the batch and gradients for every parameter."""
        x = self._check_batch(x)
        labels = np.asarray(labels, dtype=int)
        b = x.shape[0]
        scores, cache, h_last = self._forward_cached(x)

        shifted = scores - scores.max(axis=1, keepdims=True)
        log_z = np.log(np.sum(np.exp(shifted), axis=1))
        loss = float(np.mean(log_z - shifted[np.arange(b), labels]))

        dscores = np.exp(shifted)
        dscores /= dscores.sum(axis=1, keepdims=True)
        dscores[np.arange(b), labels] -= 1.0
        dscores /= b

        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        grads["w_out"] = dscores.T @ h_last
        grads["b_out"] = dscores.sum(axis=0)

        h_dim = self.hidden_size
        t_steps = x.shape[1]
        # Gradient w.r.t. each layer's output sequence; top layer only gets a
        # contribution at the final step, from the head.
        dh_seq = np.zeros((b, t_steps, h_dim))
        dh_seq[:, -1, :] = dscores @ self.params["w_out"]

        for layer in range(self.num_layers - 1, -1, -1):
            steps, _ = cache[layer]
            wx, wh = self.params[f"wx{layer}"], self.params[f"wh{layer}"]
            gwx, gwh, gb = grads[f"wx{layer}"], grads[f"wh{layer}"], grads[f"b{layer}"]
            d_in = wx.shape[1]
            dx_seq = np.zeros((b, t_steps, d_in))
            dh_next = np.zeros((b, h_dim))
            dc_next = np.zeros((b, h_dim))
            for t in range(t_steps - 1, -1, -1):
                xt, h_prev, c_prev, gi, gf, gg, go, tanh_c = steps[t]
                dh = dh_seq[:, t, :] + dh_next
                do = dh * tanh_c
                dc = dh * go * (1.0 - tanh_c ** 2) + dc_next
                di = dc * gg
                dg = dc * gi
                df = dc * c_prev
                dc_next = dc * gf
                dz = np.concatenate([
                    di * gi * (1.0 - gi),
                    df * gf * (1.0 - gf),
                    dg * (1.0 - gg ** 2),
                    do * go * (1.0 - go),
                ], axis=1)
                gwx += dz.T @ xt
                gwh += dz.T @ h_prev
                gb += dz.sum(axis=0)
                dx_seq[:, t, :] = dz @ wx
                dh_next = dz @ wh
            dh_seq = dx_seq  # feeds the layer below
        return loss, grads


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def _adam_init(detector: LstmDetector) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in detector.params.items()},
                     v={k: np.zeros_like(p) for k, p in detector.params.items()})


def _adam_update(detector: LstmDetector, grads: dict, state: AdamState,
                 lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
    state.step += 1
    corr1 = 1.0 - beta1 ** state.step
    corr2 = 1.0 - beta2 ** state.step
    for name in detector.param_names():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / corr1
        v_hat = state.v[name] / corr2
        detector.params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def lstm_train(detector: LstmDetector, segments, labels, epochs: int,
               batch_size: int = 10, learning_rate: float = 5e-5,
               rng_seed: int = 0, val_data=None, verbose: bool = False):
    """Train in place; returns (detector, history).

    history is one dict per epoch with train_loss and, when val_data
    (segments, labels) is given, val_loss. The batch order is drawn from
    rng_seed, so identical inputs and seed give identical final parameters.
    """
    x = np.asarray(segments, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 3:
        raise ModelError(f"expected segments [n, steps, bins], got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ModelError("segments and labels lengths differ")
    classes = np.unique(y)
    if classes.size < 2:
        raise ModelError("training set contains a single class")
    if epochs < 0 or batch_size < 1:
        raise ModelError("epochs must be >= 0 and batch_size >= 1")

    rng = np.random.default_rng(rng_seed)
    state = _adam_init(detector)
    history = []
    n = x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = detector.loss_and_grads(x[idx], y[idx])
            _adam_update(detector, grads, state, learning_rate)
            total += loss * idx.shape[0]
            seen += idx.shape[0]
        entry = {"epoch": epoch, "train_loss": total / seen}
        if val_data is not None:
            vx, vy = val_data
            entry["val_loss"] = evaluate_loss(detector, vx, vy)
        history.append(entry)
        if verbose:
            msg = f"epoch {epoch}: train_loss={entry['train_loss']:.6f}"
            if "val_loss" in entry:
                msg += f" val_loss={entry['val_loss']:.6f}"
            print(msg)
    detector.training_config = {
        "epochs": epochs, "batch_size": batch_size,
        "learning_rate": learning_rate, "rng_seed": rng_seed,
        "optimizer": "adam", "loss": "cross_entropy",
    }
    return detector, history


def evaluate_loss(detector: LstmDetector, segments, labels) -> float:
    x = np.asarray(segments, dtype=float)
    y = np.asarray(labels, dtype=int)
    scores = detector.forward_batch(x)
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    return float(np.mean(log_z - shifted[np.arange(x.shape[0]), y]))


# --- model file: parameter blob with a JSON manifest -------------------------

# Manifest entries every model file carries and load_model requires.
FIXED_MANIFEST = {"num_layers": LstmDetector.num_layers,
                  "num_classes": LstmDetector.num_classes, "normalize": True}


def save_model(detector: LstmDetector, path) -> None:
    manifest = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "input_dim": detector.input_dim,
        "hidden_size": detector.hidden_size,
        "seed": detector.seed,
        "training": detector.training_config,
        **FIXED_MANIFEST,
    }
    arrays = {name: detector.params[name] for name in detector.param_names()}
    np.savez(path, manifest=np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_model(path) -> LstmDetector:
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ModelError(f"model file is not a readable archive: {exc}")
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ModelError("model file is not a readable archive: a bare array, not .npz")
    with archive as data:
        try:
            manifest = json.loads(bytes(data["manifest"]).decode())
        except Exception as exc:
            raise ModelError(f"model file has no readable manifest: {exc}")
        if manifest.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ModelError(
                f"unsupported model schema_version {manifest.get('schema_version')!r}")
        for key, value in FIXED_MANIFEST.items():
            if manifest.get(key) != value:
                raise ModelError(f"model manifest {key} is {manifest.get(key)!r}, not {value!r}")
        try:
            dims = manifest["input_dim"], manifest["hidden_size"], manifest["seed"]
        except KeyError as exc:
            raise ModelError(f"model manifest has no key {exc}") from None
        det = LstmDetector(*dims)
        det.training_config = manifest.get("training", {})
        for name in det.param_names():
            if name not in data:
                raise ModelError(f"model file is missing parameter {name!r}")
            arr = data[name]
            if arr.shape != det.params[name].shape:
                raise ModelError(
                    f"parameter {name!r} has shape {arr.shape}, expected {det.params[name].shape}")
            det.params[name] = arr.astype(float)
    return det
