"""Spans around calls into the pipeline layers, recorded from outside the package.

A Tracer wraps every public function of each layer module of rotorsense
(echo, frameio, rdmap, folding, tracking, identify, lstm) as the CLI sees it:
cli's module references (cli.echo, cli.tracking, ...) are swapped for proxies
that hand out the wrapped functions, and the names cli imports with
"from ... import" are rebound. cli calls process_frames and build_folding_map
by those names, so patching rdmap.process_frames alone would record none of
its calls. Calls inside the package (identify's folding_result, echo's
synthesize_frame) stay unwrapped and count toward the calling layer. The two
LstmDetector methods that do the numeric work are patched on the class, so
lstm_train's own time is what remains of training besides them: the Adam
update and batching.

A layer's self time is the time of its spans minus the part their child
spans cover. Spans stay in memory until the run writes them out.

Run as a script on a trace file written by perfbench/run.py to print the self
time and call count of every function per phase:

    python3 perfbench/tracer.py perfbench/_runs/<run>-trace.json
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("echo", "frameio", "rdmap", "folding", "tracking", "identify", "lstm")
LSTM_METHODS = ("forward_batch", "loss_and_grads")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "phase", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, layer, phase):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.phase = phase
        self.start = self.end = 0.0
        self.attrs = None

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "phase": self.phase, "start": self.start,
                "end": self.end, "attrs": self.attrs}


class _LayerProxy:
    """A layer module whose public functions are replaced by their wrappers."""

    def __init__(self, module, wrappers: dict):
        self._module = module
        self._wrappers = wrappers

    def __getattr__(self, attr):
        wrapper = self._wrappers.get(attr)
        return wrapper if wrapper is not None else getattr(self._module, attr)


class Tracer:
    """Records spans for one process; `phase` names the set-up or pass in progress."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = None
        self._stack: list[Span] = []
        self._patches: list = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s
        finally:
            self.close(s)

    # --- interception ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.attrs = counter(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Patch the CLI's view of the layers; rotorsense.cli must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli = sys.modules["rotorsense.cli"]
        for layer in LAYERS:
            module = sys.modules[f"rotorsense.{layer}"]
            wrappers = {attr: self._wrap(fn, layer, f"{layer}.{attr}")
                        for attr, fn in vars(module).items()
                        if not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__}
            if getattr(cli, layer, None) is module:
                self._patch(cli, layer, _LayerProxy(module, wrappers))
            for attr, wrapper in wrappers.items():
                if getattr(cli, attr, None) is wrapper.__wrapped__:
                    self._patch(cli, attr, wrapper)
        detector = sys.modules["rotorsense.lstm"].LstmDetector
        for method in LSTM_METHODS:
            self._patch(detector, method,
                        self._wrap(detector.__dict__[method], "lstm", f"lstm.{method}"))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- counters: work done per boundary call, computed from shapes -------------

def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _returns_per_frame(scene) -> int:
    returns = 0
    for em in scene.emitters:
        uav = getattr(em, "uav", None)
        returns += 1 + (uav.rotor_count * uav.scatterers_per_rotor if uav else 0)
    return returns


def _echo_frames(result, args, kwargs):
    samples = sum(f.samples.size for f in result)
    return {"frames": len(result), "return_samples": _returns_per_frame(args[0]) * samples}


def _frameio_read(result, args, kwargs):
    frames = result[0] if isinstance(result, tuple) else result
    path = _arg(args, kwargs, 0, "path")
    return {"frames": len(frames), "bytes_read": os.path.getsize(path)}


def _frameio_write(result, args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return {"frames": len(_arg(args, kwargs, 1, "frames")),
            "bytes_written": os.path.getsize(path)}


def _fingerprint(frame) -> int:
    # The first chirp identifies a frame: noise makes two distinct frames
    # agree there with negligible probability.
    return hash(frame.samples[0].tobytes())


def _rdmap_frames(result, args, kwargs):
    frames = list(_arg(args, kwargs, 0, "frames"))
    return {"frames": len(frames), "fingerprints": [_fingerprint(f) for f in frames]}


def _folding_map_rows(result, args, kwargs):
    return {"rows": int(result.values.size)}


def _pf(result, args, kwargs):
    estimates, reseeds = result
    return {"steps": int(len(estimates)), "reseeds": int(reseeds)}


def _segments(result, args, kwargs):
    return {"segments": len(result), "passed": sum(bool(s.passed_filter) for s in result)}


def _train_step(result, args, kwargs):
    det, x = args[0], _arg(args, kwargs, 1, "x")
    b, t_steps = len(x), len(x[0])
    h, c = det.hidden_size, det.num_classes
    dims = sum((det.input_dim if layer == 0 else h) + h for layer in range(det.num_layers))
    # Per layer and step the forward pass does two GEMMs, 8*B*H*(D+H) flops,
    # and the backward pass four, twice that; the head adds 6*B*H*C.
    return {"steps": 1, "flops": 24 * t_steps * b * h * dims + 6 * b * h * c}


# Keyed by the functions cli calls; calls inside the package are not wrapped.
COUNTERS = {
    "echo.synthesize_frames": _echo_frames,
    "frameio.read_frames": _frameio_read,
    "frameio.read_frames_int16": _frameio_read,
    "frameio.write_frames": _frameio_write,
    "rdmap.process_frames": _rdmap_frames,
    "folding.build_folding_map": _folding_map_rows,
    "tracking.particle_filter": _pf,
    "identify.segment_split_filter": _segments,
    "lstm.loss_and_grads": _train_step,
}


# --- aggregation into per-layer metrics ---------------------------------------

# Self time of the listed functions; a layer's total is every function of it.
FUNCTION_GROUPS = {
    "frameio.read_s": ("frameio.read_frames", "frameio.read_header",
                       "frameio.read_frames_int16", "frameio.radar_from_header"),
    "frameio.write_s": ("frameio.write_frames",),
    "tracking.subtract_s": ("tracking.estimate_noise_profile", "tracking.spectral_subtract"),
    "tracking.dp_s": ("tracking.dp_max_path",),
    "tracking.pf_s": ("tracking.particle_filter", "tracking.default_pf_config"),
    "identify.preprocess_s": ("identify.extract_doppler_time", "identify.diagram_at_bins",
                              "identify.dc_removal", "identify.feature_alignment"),
    "identify.segment_filter_s": ("identify.segment_split_filter",),
    "identify.dataset_io_s": ("identify.save_segments", "identify.load_segments"),
    "lstm.train_step_s": ("lstm.loss_and_grads",),
    "lstm.forward_s": ("lstm.forward_batch",),
    "lstm.adam_s": ("lstm.lstm_train",),
}
LAYER_TOTALS = {"echo.s": "echo", "frameio.s": "frameio", "rdmap.s": "rdmap",
                "folding.s": "folding", "tracking.s": "tracking", "identify.s": "identify",
                "lstm.s": "lstm", "cli.self_s": "cli"}


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def phase_totals(spans) -> dict:
    """Seconds, call counts and work counts of one phase (set-up or one pass)."""
    selfs = self_times(spans)
    seconds, calls = defaultdict(float), defaultdict(int)
    counts = defaultdict(float)
    fingerprints = set()
    group_of = defaultdict(list)
    for key, names in FUNCTION_GROUPS.items():
        for name in names:
            group_of[name].append(key)
    for key, layer in LAYER_TOTALS.items():
        group_of[layer].append(key)
    for s in spans:
        for key in group_of[s["name"]] + group_of[s["layer"]]:
            seconds[key] += selfs[s["id"]]
            calls[key] += 1
        attrs = s["attrs"] or {}
        for k, v in attrs.items():
            if k == "fingerprints":
                fingerprints.update(v)
            else:
                counts[f"{s['layer']}.{k}"] += v
    counts["rdmap.distinct"] = len(fingerprints)
    roots = [s for s in spans if s["parent"] is None]
    return {"seconds": dict(seconds), "calls": dict(calls), "counts": dict(counts),
            "wall": sum(s["end"] - s["start"] for s in roots)}


def combine(setup: dict, passes: list[dict]) -> dict:
    """Set-up totals plus the mean of the per-pass totals."""
    out = {}
    for part in ("seconds", "calls", "counts"):
        merged = defaultdict(float, setup[part])
        for p in passes:
            for k, v in p[part].items():
                merged[k] += v / len(passes)
        out[part] = dict(merged)
    out["wall"] = setup["wall"] + sum(p["wall"] for p in passes) / len(passes)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict) -> dict:
    """Per-layer metric values from combined totals; see perfbench/README.md."""
    s, c = defaultdict(float, total["seconds"]), defaultdict(float, total["counts"])
    m = {key: s[key] for key in list(LAYER_TOTALS) + list(FUNCTION_GROUPS)}
    m["echo.frames"] = c["echo.frames"]
    m["echo.ms_per_frame"] = 1e3 * _ratio(s["echo.s"], c["echo.frames"])
    m["echo.msamples_per_s"] = 1e-6 * _ratio(c["echo.return_samples"], s["echo.s"])
    m["frameio.read_mb_per_s"] = _ratio(c["frameio.bytes_read"], m["frameio.read_s"]) / 2**20
    m["rdmap.frames"] = c["rdmap.frames"]
    m["rdmap.unique_frac"] = _ratio(c["rdmap.distinct"], c["rdmap.frames"])
    m["folding.rows"] = c["folding.rows"]
    m["folding.us_per_row"] = 1e6 * _ratio(s["folding.s"], c["folding.rows"])
    m["tracking.pf_steps"] = c["tracking.steps"]
    m["tracking.pf_reseed_frac"] = _ratio(c["tracking.reseeds"], c["tracking.steps"])
    m["identify.segments"] = c["identify.segments"]
    m["identify.pass_frac"] = _ratio(c["identify.passed"], c["identify.segments"])
    m["lstm.train_steps"] = c["lstm.steps"]
    m["lstm.gflop_per_s"] = 1e-9 * _ratio(c["lstm.flops"], s["lstm.train_step_s"])
    return m


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/tracer.py TRACE_JSON", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        spans = json.load(fh)["spans"]
    selfs = self_times(spans)
    table = defaultdict(lambda: [0.0, 0])
    for s in spans:
        row = table[(s["phase"], s["name"])]
        row[0] += selfs[s["id"]]
        row[1] += 1
    print(f"{'phase':<10} {'function':<36} {'self_s':>10} {'calls':>7}")
    for (phase, name), (secs, n) in sorted(table.items(), key=lambda kv: (str(kv[0][0]), -kv[1][0])):
        print(f"{str(phase):<10} {name:<36} {secs:>10.4f} {n:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
