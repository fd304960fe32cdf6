"""Stacked LSTM sequence classifier, implemented from scratch in numpy.

Two stacked gated recurrent layers (input, forget, output gates plus a tanh
candidate writing a cell state), HIDDEN_SIZE wide by default, followed by an
affine head mapping the final hidden state to class scores. Each time step
consumes one Doppler spectrum, so the input dimension equals the Doppler bin
count and a segment is consumed time-major as [steps, bins].

Training minimizes mean softmax cross-entropy with Adam. lstm_train's defaults
are the one recipe (EPOCHS, BATCH_SIZE, LEARNING_RATE) that `rotorsense train`,
acceptance criterion 8 and demo 04 run. The detector computes in its
parameters' dtype; the CLI trains float32 on float32 dataset records; gradient
checks run float64. A new detector draws float64 weights and casts them to
float32. The update order is fixed, so a fixed seed and batch order reproduce
final parameters bit for bit. Gradients come from full backpropagation through
time; tests check them against central finite differences.

The forward pass works on whole-sequence time-major arrays: the batch
[B, T, D] is transposed once to [T, B, D], so each step's rows are one
contiguous block. Each layer caches four arrays, (layer_in, gates, cs, hs):

- layer_in [T, B, D or H]: the layer's input sequence;
- gates [T, B, 4H]: the input, forget, candidate and output activations, in
  that order along the last axis;
- cs, hs [T, B, H]: the cell and hidden states after each step.

The input projection layer_in @ wx.T is one GEMM per layer, outside the time
loop. Each step then adds h @ wh.T (none at step 0, where h is zero) and the
bias, in that order, and overwrites its [B, 4H] slice of gates with the
activations. The gates take one tanh over the whole slice:
sigmoid(z) = 0.5 * (1 + tanh(z / 2)), so the i, f and o rows are halved
before the tanh and halved and shifted by 0.5 after it (halving is exact).
The backward pass reads the gates as views and accumulates the weight
gradients step by step: whole-sequence gradient GEMMs were tried and made the
bytes depend on the BLAS thread count.

Weights initialize uniform in +-1/sqrt(hidden); biases start at zero except
the forget gate (1.0, the usual stabilizer).

A model file stores float32 arrays. Loading casts any real floating array to
float32, so float64 files still load, and refuses one that is not real
floating or not finite.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib

import numpy as np

from .config import MAX_ELEMENTS, ValidationError, json_document, json_field


class ModelError(ValidationError):
    """Shape/manifest mismatch or invalid training input."""


MODEL_SCHEMA_VERSION = 1

EPOCHS = 40
LEARNING_RATE = 5e-5
BATCH_SIZE = 10
HIDDEN_SIZE = 128


class LstmDetector:
    """Two-layer LSTM + affine head scoring the two classes; depth and classes are fixed."""

    num_layers = 2
    num_classes = 2

    def __init__(self, input_dim: int, hidden_size: int = HIDDEN_SIZE, seed: int = 0):
        if min(input_dim, hidden_size) < 1:
            raise ModelError("input_dim and hidden_size must be >= 1")
        size = 4 * hidden_size * max(input_dim, hidden_size)  # the largest weight matrix
        if size > MAX_ELEMENTS:  # checked before any draw or allocation
            raise ModelError(f"hidden_size {hidden_size} with input_dim {input_dim} gives a "
                             f"weight matrix of {size} elements, more than {MAX_ELEMENTS}")
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
        self.params = {name: p.astype(np.float32) for name, p in self.params.items()}

    @property
    def dtype(self) -> np.dtype:
        """The dtype every forward and backward pass computes in: the parameters'."""
        return self.params["wx0"].dtype

    def param_names(self) -> list[str]:
        return list(self.params)

    # --- forward -----------------------------------------------------------

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"expected input [batch, steps, {self.input_dim}], got {x.shape}")
        if x.shape[1] < 1:
            raise ModelError("sequence must contain at least one step")
        return x

    def _forward_cached(self, x: np.ndarray):
        """Returns (scores [B, C], cache) for backprop; the cache layout is in the module doc."""
        b, t_steps, _ = x.shape
        h_dim, dtype = self.hidden_size, self.dtype
        # Halves the i, f, o rows around the tanh: sigmoid(z) = 0.5 * (1 + tanh(z / 2)).
        scale = np.full(4 * h_dim, 0.5, dtype=dtype)
        scale[2 * h_dim:3 * h_dim] = 1.0
        zeros = np.zeros((b, h_dim), dtype=dtype)
        cache = []
        layer_in = np.ascontiguousarray(x.transpose(1, 0, 2))
        for layer in range(self.num_layers):
            wx, wh, bias = (self.params[f"wx{layer}"], self.params[f"wh{layer}"],
                            self.params[f"b{layer}"])
            gates = (layer_in.reshape(t_steps * b, -1) @ wx.T).reshape(t_steps, b, -1)
            cs = np.empty((t_steps, b, h_dim), dtype=dtype)
            hs = np.empty((t_steps, b, h_dim), dtype=dtype)
            for t in range(t_steps):
                z = gates[t]
                if t:
                    z += hs[t - 1] @ wh.T
                z += bias
                z *= scale
                np.tanh(z, out=z)
                z *= scale
                z[:, :2 * h_dim] += 0.5
                z[:, 3 * h_dim:] += 0.5
                gi, gf, gg, go = (z[:, k * h_dim:(k + 1) * h_dim] for k in range(4))
                c, h = cs[t], hs[t]
                np.multiply(gf, cs[t - 1] if t else zeros, out=c)
                c += gi * gg
                np.tanh(c, out=h)
                h *= go
            cache.append((layer_in, gates, cs, hs))
            layer_in = hs
        scores = layer_in[-1] @ self.params["w_out"].T + self.params["b_out"]
        return scores, cache

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        scores, _ = self._forward_cached(self._check_batch(x))
        return scores

    def forward(self, segment: np.ndarray) -> np.ndarray:
        """Class scores for one [steps, input_dim] segment."""
        segment = np.asarray(segment, dtype=self.dtype)
        if segment.ndim != 2:
            raise ModelError(f"expected a 2-d segment, got shape {segment.shape}")
        return self.forward_batch(segment[None])[0]

    # --- loss and gradients --------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy over the batch and gradients for every parameter."""
        x = self._check_batch(x)
        labels = np.asarray(labels, dtype=int)
        b, t_steps, _ = x.shape
        scores, cache = self._forward_cached(x)
        loss, shifted = _cross_entropy(scores, labels)

        dscores = np.exp(shifted)
        dscores /= dscores.sum(axis=1, keepdims=True)
        dscores[np.arange(b), labels] -= 1.0
        dscores /= b

        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        _, _, _, top_hs = cache[-1]
        grads["w_out"] = dscores.T @ top_hs[-1]
        grads["b_out"] = dscores.sum(axis=0)

        h_dim = self.hidden_size
        zeros = np.zeros((b, h_dim), dtype=self.dtype)
        # Gradient w.r.t. each layer's output sequence; top layer only gets a
        # contribution at the final step, from the head.
        dh_seq = np.zeros((t_steps, b, h_dim), dtype=self.dtype)
        dh_seq[-1] = dscores @ self.params["w_out"]

        for layer in range(self.num_layers - 1, -1, -1):
            layer_in, gates, cs, hs = cache[layer]
            wx, wh = self.params[f"wx{layer}"], self.params[f"wh{layer}"]
            gwx, gwh, gb = grads[f"wx{layer}"], grads[f"wh{layer}"], grads[f"b{layer}"]
            tanh_cs = np.tanh(cs)
            dx_seq = np.empty_like(layer_in) if layer else None  # layer 0's is unread
            dh_next = dc_next = zeros
            for t in range(t_steps - 1, -1, -1):
                gi, gf, gg, go = (gates[t, :, k * h_dim:(k + 1) * h_dim] for k in range(4))
                c_prev = cs[t - 1] if t else zeros
                tanh_c = tanh_cs[t]
                dh = dh_seq[t] + dh_next
                dc = dh * go * (1.0 - tanh_c ** 2) + dc_next
                dz = np.concatenate([
                    dc * gg * gi * (1.0 - gi),
                    dc * c_prev * gf * (1.0 - gf),
                    dc * gi * (1.0 - gg ** 2),
                    dh * tanh_c * go * (1.0 - go),
                ], axis=1)
                dc_next = dc * gf
                gwx += dz.T @ layer_in[t]
                gb += dz.sum(axis=0)
                if layer:
                    np.matmul(dz, wx, out=dx_seq[t])
                if t:  # h before step 0 is zero: no gradient for wh, nothing earlier
                    gwh += dz.T @ hs[t - 1]
                    dh_next = dz @ wh
            dh_seq = dx_seq  # feeds the layer below
        return loss, grads


def _cross_entropy(scores: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy, and the row-max-shifted scores it came from."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    return float(np.mean(log_z - shifted[np.arange(scores.shape[0]), labels])), shifted


def lstm_train(detector: LstmDetector, segments, labels, epochs: int = EPOCHS,
               batch_size: int = BATCH_SIZE, learning_rate: float = LEARNING_RATE,
               rng_seed: int = 0, val_data=None, verbose: bool = False):
    """Train in place; returns (detector, history).

    history is one dict per epoch with train_loss and, when val_data
    (segments, labels) is given, val_loss. The batch order is drawn from
    rng_seed, so identical inputs and seed give identical final parameters.
    """
    x = np.asarray(segments, dtype=detector.dtype)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 3:
        raise ModelError(f"expected segments [n, steps, bins], got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ModelError("segments and labels lengths differ")
    if np.all(y == y[:1]):  # also true of no labels; np.unique would import numpy.ma
        raise ModelError("training set contains a single class")
    if epochs < 0 or batch_size < 1:
        raise ModelError("epochs must be >= 0 and batch_size >= 1")

    rng = np.random.default_rng(rng_seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = {name: np.zeros_like(p) for name, p in detector.params.items()}
    v = {name: np.zeros_like(p) for name, p in detector.params.items()}
    step = 0
    history = []
    n = x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = detector.loss_and_grads(x[idx], y[idx])
            step += 1
            corr1 = 1.0 - beta1 ** step
            corr2 = 1.0 - beta2 ** step
            for name, p in detector.params.items():
                g = grads[name]
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                p -= learning_rate * (m[name] / corr1) / (np.sqrt(v[name] / corr2) + eps)
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
    return _cross_entropy(detector.forward_batch(segments), np.asarray(labels, dtype=int))[0]


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
    arrays = {name: detector.params[name].astype(np.float32)
              for name in detector.param_names()}
    np.savez(path, manifest=np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8), **arrays)


# What reading a damaged archive raises: a bad CRC or header, a cut-off stream,
# a compression method or zip version zipfile does not know, a stray
# encryption flag, a stream that does not inflate.
_DAMAGED_ARCHIVE = (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError,
                    ValueError, zlib.error)


def _read_member(data, name: str) -> np.ndarray:
    if name not in data:
        raise ModelError(f"model file has no member {name!r}")
    try:
        return data[name]
    except _DAMAGED_ARCHIVE as exc:
        raise ModelError(f"model file member {name!r} is unreadable: {exc}")


def load_model(path) -> LstmDetector:
    """A model file's detector; a path is opened here and closed on every exit."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "rb") as fh:
            return load_model(fh)
    try:
        archive = np.load(path)
    except _DAMAGED_ARCHIVE as exc:
        raise ModelError(f"model file is not a readable archive: {exc}")
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ModelError("model file is not a readable archive: a bare array, not .npz")
    with archive as data:
        manifest = json_document(bytes(_read_member(data, "manifest")), "model manifest",
                                 ModelError)

        def get(key, kind, *default):
            return json_field(manifest, key, kind, "model manifest", ModelError, *default)

        version = get("schema_version", "integer")
        if version != MODEL_SCHEMA_VERSION:
            raise ModelError(f"unsupported model schema_version {version!r}")
        for key, value in FIXED_MANIFEST.items():
            if type(manifest.get(key)) is not type(value) or manifest[key] != value:
                raise ModelError(f"model manifest {key} is {manifest.get(key)!r}, not {value!r}")
        input_dim, hidden_size, seed = (get(key, "integer")
                                        for key in ("input_dim", "hidden_size", "seed"))
        if seed < 0:
            raise ModelError(f"model manifest seed = {seed} is negative")
        # The stored layer-0 weights bound the dims before anything is allocated.
        for key, name, expected in (("hidden_size", "wh0", (4 * hidden_size, hidden_size)),
                                    ("input_dim", "wx0", (4 * hidden_size, input_dim))):
            shape = _read_member(data, name).shape
            if shape != expected:
                raise ModelError(f"model manifest {key} = {manifest[key]} does not match "
                                 f"stored {name} of shape {shape}")
        det = LstmDetector(input_dim, hidden_size, seed)
        det.training_config = get("training", "object", {})
        for name in det.param_names():
            arr = _read_member(data, name)
            if arr.shape != det.params[name].shape:
                raise ModelError(
                    f"parameter {name!r} has shape {arr.shape}, expected {det.params[name].shape}")
            if arr.dtype.kind != "f":
                raise ModelError(f"model file member {name!r} has dtype {arr.dtype}, "
                                 f"not a real floating type")
            with np.errstate(over="ignore"):  # a float64 beyond float32's range: inf
                arr = arr.astype(np.float32)
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"model file member {name!r} holds a value that is not "
                                 f"a finite float32")
            det.params[name] = arr
    return det
