"""The reader contract through the command line.

A damaged input file of any kind (frame capture, segment dataset, model,
scenario, radar config) exits 1 or 2 and never 3, the internal-error code;
and a mistyped field of a scenario, radar config, dataset record header or
model manifest exits 1 naming it, and never runs.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rotorsense import cli, frameio, identify, lstm, scenarios
from rotorsense.config import RadarConfig, save_radar_config
from rotorsense.echo import synthesize_frames

SCENARIO = {
    "schema_version": 1,
    "seed": 3,
    "noise_std": 4.0,
    "emitters": [
        {"kind": "uav",
         "uav": {"geometry_seed": 2, "rotation_rate_hz": 55.6, "rotor_count": 4,
                 "scatterers_per_rotor": 2, "blade_reflectivity": 0.18,
                 "body_reflectivity": 1.0},
         "trajectory": [{"start_time_s": 0.0, "duration_s": 3.7, "start_range_m": 48.0,
                         "radial_velocity_m_per_s": 0.0}]},
        {"kind": "static-clutter", "range_m": 12.0, "reflectivity": 2.0},
        {"kind": "distractor", "distractor": "slow-oscillator",
         "params": {"range_m": 30.0, "reflectivity": 1.3, "base_rate_hz": 40.0,
                    "amplitude_m": 0.02, "drift_per_frame": 0.35}},
    ],
}

# Small grids keep one command run to a few milliseconds.
CAPTURE_RADAR = RadarConfig(chirps_per_frame=40, samples_per_chirp=16)
SCENARIO_RADAR = RadarConfig(chirps_per_frame=8, samples_per_chirp=16)

RECORD = {"W": 4, "L": 7, "label": "uav", "max_folding_result": 2.5, "passed_filter": True,
          "provenance": {"scene": "uav"}}


def _record_bytes(header: dict) -> bytes:
    blob = json.dumps(header).encode()
    return (identify.SEGMENT_MAGIC + (1).to_bytes(4, "little") + len(blob).to_bytes(4, "little")
            + blob + np.ones((4, 7), dtype=np.float32).tobytes())


def _model_bytes(manifest: dict) -> bytes:
    det = lstm.LstmDetector(input_dim=7, hidden_size=4, seed=0)
    buffer = io.BytesIO()
    np.savez(buffer, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **{name: det.params[name] for name in det.param_names()})
    return buffer.getvalue()


def _saved_manifest() -> dict:
    buffer = io.BytesIO()
    lstm.save_model(lstm.LstmDetector(input_dim=7, hidden_size=4, seed=0), buffer)
    buffer.seek(0)
    with np.load(buffer) as data:
        return json.loads(bytes(data["manifest"]).decode())


MANIFEST = _saved_manifest()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid file of every kind, by kind, plus the directory they sit in."""
    root = tmp_path_factory.mktemp("contract")
    paths = {kind: root / name for kind, name in (
        ("frames", "frames.bin"), ("dataset", "dataset.bin"), ("model", "model.npz"),
        ("scenario", "scenario.json"), ("radar", "radar.json"))}
    scene = scenarios.hover_scene(48.0, seed=1)
    frameio.write_frames(paths["frames"], synthesize_frames(scene, CAPTURE_RADAR, 4),
                         CAPTURE_RADAR)
    paths["dataset"].write_bytes(_record_bytes(RECORD))
    paths["model"].write_bytes(_model_bytes(MANIFEST))
    paths["scenario"].write_text(json.dumps(SCENARIO))
    save_radar_config(SCENARIO_RADAR, paths["radar"])
    return paths, root


def _argv(kind: str, path, paths, out) -> list:
    """The command that reads `path` as a file of `kind`; the other inputs are valid."""
    files = dict(paths, **{kind: path})
    if kind == "frames":
        return ["track", "--frames", str(files["frames"]), "--out", str(out)]
    if kind in ("dataset", "model"):
        return ["identify", "--dataset", str(files["dataset"]), "--model", str(files["model"]),
                "--out", str(out)]
    return ["simulate", "--config", str(files["radar"]), "--scenario", str(files["scenario"]),
            "--frames", "1", "--out", str(out)]


def _run(kind: str, blob: bytes, valid) -> tuple:
    """Exit code and stderr of the command reading `blob` as a file of `kind`."""
    paths, root = valid
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path = Path(tmp) / paths[kind].name
        path.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(_argv(kind, path, paths, Path(tmp) / "out"))
    return code, err.getvalue()


def test_valid_files_run(valid):
    paths, _ = valid
    for kind in paths:
        assert _run(kind, paths[kind].read_bytes(), valid) == (0, "")


# --- byte level: truncations, byte overwrites and random bytes ------------------

def _overwrite(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for at, value in edits:
        out[at % len(out)] = value
    return bytes(out)


_KINDS = ("frames", "dataset", "model", "scenario", "radar")


@st.composite
def _damaged(draw, valid):
    paths, _ = valid
    kind = draw(st.sampled_from(_KINDS))
    blob = paths[kind].read_bytes()
    # Half the overwrites land in the first 512 bytes, where every header sits.
    at = st.one_of(st.integers(0, 511), st.integers(0, len(blob) - 1))
    return kind, draw(st.one_of(
        st.integers(0, len(blob) - 1).map(lambda cut: blob[:cut]),
        st.lists(st.tuples(at, st.integers(0, 255)), min_size=1, max_size=3).map(
            lambda edits: _overwrite(blob, edits)),
        st.binary(max_size=600)))


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_never_exits_three(valid, data):
    """A cut, overwritten or random file is read or refused (exit 1 or 2), never a fault."""
    kind, blob = data.draw(_damaged(valid))
    code, err = _run(kind, blob, valid)
    assert code in (0, 1, 2), (kind, err)


# --- value level: one field replaced by any JSON value --------------------------

# The kind of every field a test may replace, by path; dataset records and model
# manifests are typed at their top level ("provenance" and "training" are free-form).
SCENARIO_FIELDS = {
    ("schema_version",): "integer", ("seed",): "integer", ("noise_std",): "number",
    ("emitters",): "list",
    ("emitters", 0): "object", ("emitters", 0, "kind"): "string",
    ("emitters", 0, "uav"): "object",
    **{("emitters", 0, "uav", key): kind for key, kind in (
        ("geometry_seed", "integer"), ("rotation_rate_hz", "number"),
        ("rotor_count", "integer"), ("scatterers_per_rotor", "integer"),
        ("blade_reflectivity", "number"), ("body_reflectivity", "number"))},
    ("emitters", 0, "trajectory"): "list", ("emitters", 0, "trajectory", 0): "object",
    **{("emitters", 0, "trajectory", 0, key): "number" for key in cli.LEG_FIELDS},
    ("emitters", 1, "range_m"): "number", ("emitters", 1, "reflectivity"): "number",
    ("emitters", 2, "distractor"): "string", ("emitters", 2, "params"): "object",
    **{("emitters", 2, "params", key): "number"
       for key in SCENARIO["emitters"][2]["params"]},
}
RADAR_FIELDS = {("schema_version",): "integer", ("radar",): "object",
                **{("radar", key): "integer" if type(value) is int else "number"
                   for key, value in asdict(SCENARIO_RADAR).items()}}
RECORD_FIELDS = {("W",): "integer", ("L",): "integer", ("label",): "string",
                 ("max_folding_result",): "number", ("passed_filter",): "bool",
                 ("provenance",): "object"}
MANIFEST_FIELDS = {("schema_version",): "integer", ("input_dim",): "integer",
                   ("hidden_size",): "integer", ("seed",): "integer",
                   ("num_layers",): "integer", ("num_classes",): "integer",
                   ("normalize",): "bool", ("training",): "object"}

# Integers stay small or astronomically large: a count between them would ask for
# gigabytes that the contract does not forbid.
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2.5, -0.0, 2**64, -2**64, 10**400,
                     math.nan, math.inf, -math.inf, 1e308, "", "x", "4", [], [1], {},
                     {"a": 1}]),
    st.integers(-10, 1000), st.floats(allow_nan=False, allow_infinity=False))


def _satisfies(value, kind: str) -> bool:
    """The field rule, restated: a bool is no integer or number; numbers are finite."""
    if kind == "number":
        return (type(value) is float and math.isfinite(value)) or (
            type(value) is int and abs(value) <= sys.float_info.max)
    return type(value) is {"integer": int, "string": str, "bool": bool, "object": dict,
                           "list": list}[kind]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _file_with(kind: str, path, value) -> bytes:
    """The valid file of `kind` with the field at `path` set to `value`."""
    if kind == "scenario":
        return json.dumps(_replaced(SCENARIO, path, value)).encode()
    if kind == "radar":
        config = {"schema_version": 1, "radar": asdict(SCENARIO_RADAR)}
        return json.dumps(_replaced(config, path, value)).encode()
    if kind == "dataset":
        return _record_bytes(_replaced(RECORD, path, value))
    return _model_bytes(_replaced(MANIFEST, path, value))


_FIELDS = [("scenario", path, kind) for path, kind in SCENARIO_FIELDS.items()] + [
    ("radar", path, kind) for path, kind in RADAR_FIELDS.items()] + [
    ("dataset", path, kind) for path, kind in RECORD_FIELDS.items()] + [
    ("model", path, kind) for path, kind in MANIFEST_FIELDS.items()]


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_FIELDS), value=JSON_VALUES)
def test_mistyped_field_exits_one_and_never_runs(valid, field, value):
    """Any JSON value in one field: exit 0 only when the value is of the field's kind."""
    kind, path, rule = field
    code, err = _run(kind, _file_with(kind, path, value), valid)
    assert code in (0, 1), (path, value, err)
    if code == 0:
        assert _satisfies(value, rule), (path, value)
    elif not _satisfies(value, rule):
        assert str(path[-1]) in err, (path, value, err)
