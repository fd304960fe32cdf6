"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests -q"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from rotorsense import cli, echo, lstm, rdmap  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(span_id, parent, name, layer, start, end, phase="pass0", attrs=None):
    return {"id": span_id, "parent": parent, "name": name, "layer": layer,
            "phase": phase, "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_direct_children_only():
    spans = [span(0, None, "pass", "bench", 0.0, 10.0),
             span(1, 0, "cli.track", "cli", 1.0, 9.0),
             span(2, 1, "rdmap.process_frames", "rdmap", 2.0, 5.0),
             span(3, 1, "tracking.dp_max_path", "tracking", 5.0, 6.0),
             span(4, 3, "lstm.forward_batch", "lstm", 5.2, 5.7)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 4.0, 2: 3.0, 3: 0.5, 4: 0.5})

    totals = tracing.phase_totals(spans)
    assert totals["seconds"]["cli.self_s"] == pytest.approx(4.0)
    assert totals["seconds"]["rdmap.s"] == pytest.approx(3.0)
    assert totals["seconds"]["tracking.dp_s"] == pytest.approx(0.5)
    assert totals["seconds"]["lstm.forward_s"] == pytest.approx(0.5)
    assert totals["wall"] == pytest.approx(10.0)
    layers = sum(totals["seconds"][k] for k in tracing.LAYER_TOTALS if k in totals["seconds"])
    assert layers == pytest.approx(totals["wall"] - selfs[0])


def test_combine_adds_setup_to_the_mean_pass():
    setup = {"seconds": {"echo.s": 1.0}, "calls": {"echo.s": 2}, "counts": {}, "wall": 1.5}
    passes = [{"seconds": {"echo.s": 2.0}, "calls": {"echo.s": 1}, "counts": {"rdmap.frames": 4},
               "wall": 3.0},
              {"seconds": {"echo.s": 4.0}, "calls": {"echo.s": 1}, "counts": {"rdmap.frames": 4},
               "wall": 5.0}]
    total = tracing.combine(setup, passes)
    assert total["seconds"]["echo.s"] == pytest.approx(4.0)
    assert total["counts"]["rdmap.frames"] == pytest.approx(4.0)
    assert total["wall"] == pytest.approx(5.5)


def test_rdmap_unique_frac_counts_repeated_frames_once():
    spans = [span(0, None, "cli.track", "cli", 0.0, 4.0),
             span(1, 0, "rdmap.process_frames", "rdmap", 0.0, 1.0,
                  attrs={"frames": 2, "fingerprints": [11, 12]}),
             span(2, 0, "rdmap.process_frames", "rdmap", 1.0, 2.0,
                  attrs={"frames": 2, "fingerprints": [11, 12]})]
    m = tracing.layer_metrics(tracing.phase_totals(spans))
    assert m["rdmap.frames"] == 4
    assert m["rdmap.unique_frac"] == pytest.approx(0.5)


def test_metric_names_are_well_formed_and_all_produced():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    empty = {"seconds": {}, "calls": {}, "counts": {}, "wall": 0.0}
    produced = set(tracing.layer_metrics(empty)) | {
        "frameio.read_peak_x", "trace.setup_s", "trace.run_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} <= produced
    assert {m["name"] for m in bench["end_to_end"]} == {
        "run_s", "setup_s", "verdict_p50_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    for expected in workloads.EXPECTED_CALLS.values():
        for key in expected["setup"] + expected["pass"]:
            assert key in produced, key


@pytest.fixture(scope="module")
def background(tmp_path_factory):
    out = tmp_path_factory.mktemp("bg")
    op = workloads._simulate("background", ROOT / "demos" / "scenarios" / "background.json",
                             7, out)
    assert workloads.run_op(op)["code"] == 0
    return out / "frames.bin"


def test_truncated_frame_file_is_one_failed_op(background, tmp_path):
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(background.read_bytes()[:-1000])
    ops = [workloads._track("bad/track", truncated, 1, tmp_path / "bad"),
           workloads._track("good/track", background, 1, tmp_path / "good")]
    result = child.run_pass(ops, None)
    bad, good = result["ops"]
    assert bad["code"] == 2
    assert len(bad["failures"]) == 1 and "exit code 2" in bad["failures"][0]
    assert good["code"] == 0 and good["failures"] == []


def test_changed_output_fails_the_repeated_op(background, tmp_path):
    op = workloads._track("track", background, 1, tmp_path)
    first = workloads.check_op(op, workloads.run_op(op), None)
    again = workloads.check_op(op, workloads.run_op(op), first)
    assert again["failures"] == []
    (tmp_path / "summary.json").write_text("{}")
    changed = workloads.check_op(op, {**again}, first)
    assert changed["failures"] == ["outputs differ from the op's first run: ['summary.json']"]


def test_tracer_sees_cli_calls_bound_by_name_and_restores(background, tmp_path):
    original = cli.process_frames
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.process_frames is not original
        with tracer.span("cli.track", "cli"):
            code = cli.main(["track", "--frames", str(background), "--seed", "1",
                             "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.process_frames is original and rdmap.process_frames is original
    assert cli.echo is echo
    names = [s.name for s in tracer.spans]
    for expected in ("rdmap.process_frames", "folding.build_folding_map",
                     "frameio.read_frames", "tracking.dp_max_path",
                     "tracking.particle_filter"):
        assert expected in names
    pf = next(s for s in tracer.spans if s.name == "tracking.particle_filter")
    assert pf.attrs["steps"] == 40 and pf.parent == 0


def test_lstm_methods_nest_under_lstm_train():
    import numpy as np

    det = lstm.LstmDetector(input_dim=3, hidden_size=4, seed=1)
    x = np.random.default_rng(0).normal(size=(4, 5, 3))
    y = np.array([0, 1, 0, 1])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.train", "cli"):
            cli.lstm.lstm_train(det, x, y, epochs=1, batch_size=2, val_data=(x, y))
    finally:
        tracer.uninstall()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    train = by_name["lstm.lstm_train"][0]
    assert [s.parent for s in by_name["lstm.loss_and_grads"]] == [train.id, train.id]
    assert by_name["lstm.forward_batch"][0].parent == train.id
    step = by_name["lstm.loss_and_grads"][0].attrs
    assert step["flops"] == 24 * 5 * 2 * 4 * ((3 + 4) + (4 + 4)) + 6 * 2 * 4 * 2
