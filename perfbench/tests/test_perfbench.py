"""Tests for the benchmark itself, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys
import types

import pytest

import layers
import run
import workloads
from pages import page_task
from repro.experiments.tasks import build_task

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
with open(SPEC_PATH, encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    workloads.SessionPages: {"TASKS": (("T7", 24, True), ("T5", 16, True)), "ROUNDS": 1},
    workloads.SessionJoin: {"TASKS": (("T9", 16, False),), "ROUNDS": 1},
    workloads.BatchRecords: {"SIZE": 60, "EDITS": 1},
    workloads.ServiceMixed: {"SIZE": 24, "RUNS": 2, "UNIT_BURSTS": 1},
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, attrs in TINY.items():
        for name, value in attrs.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def _run(workload, seed, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
        ) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, workload, trace):
    record, result = _run(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert record["seed"] == 0 and record["nproc"] == os.cpu_count()
    assert record["python"] and record["revision"] and record["why"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("row", layers.PROBES, ids=lambda row: row[1])
def test_every_wrapper_target_resolves(row):
    owner, name, original = layers.resolve(row[1])
    assert callable(original)


def test_missing_targets_leave_their_metrics_absent():
    gone = ("features.refine_s", "repro.features.gone.refine", "call", None)
    half = ("service.ingest_s", "repro.service.state.NoSuchThing.ingest", "call", None)
    probes = tuple(row for row in layers.PROBES if row[0] != gone[0]) + (gone, half)
    recorder = layers.Recorder().install(probes)
    recorder.uninstall()
    values = layers.layer_metrics(recorder)
    assert "features.refine_s" not in values
    assert "service.ingest_s" in values  # one of its two targets resolved
    assert recorder.missing == {"features.refine_s"}


def test_self_times_exclude_wrapped_children(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def inner():
        return sum(range(20000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    probes = (
        ("text.parse_s", module.__name__ + ".outer", "call", None),
        ("alog.unfold_s", module.__name__ + ".inner", "call", None),
    )
    recorder = layers.Recorder().install(probes)
    try:
        module.outer()
    finally:
        recorder.uninstall()
    assert module.outer is outer
    seconds, calls = recorder.seconds, recorder.calls
    assert calls == {"text.parse_s": 1, "alog.unfold_s": 2}
    spans = {span.name: span for span in recorder.spans()}
    total = spans["text.parse_s"].duration
    assert seconds["text.parse_s"] + seconds["alog.unfold_s"] == pytest.approx(total, rel=0.05)


def test_another_seed_changes_the_inputs_not_the_metric_names(tiny):
    inputs = [workloads.BatchRecords(seed, "unused").html for seed in (0, 1)]
    assert inputs[0] != inputs[1]
    names = [set(_run("batch-records", seed, 0)[1]["metrics"]) for seed in (0, 1)]
    assert names[0] == names[1]


def test_page_chrome_keeps_ground_truth_and_grows_documents():
    task = build_task("T7", size=20, seed=3)
    paged, pages = page_task(task, 3)
    before = [len(d.text) for d in task.corpus.table("Barnes")]
    after = [len(d.text) for d in paged.corpus.table("Barnes")]
    assert all(b > 4 * a for a, b in zip(before, after))
    for key, spans in paged.truth.attribute_spans.items():
        originals = task.truth.attribute_spans[key]
        assert [s.text for s in spans] == [s.text for s in originals]
        assert all(s.doc.doc_id.endswith("-page") for s in spans)
    assert [doc_id for doc_id, _ in pages["Barnes"]] == [
        d.doc_id for d in paged.corpus.table("Barnes")
    ]
    again, _ = page_task(task, 3)
    assert [d.text for d in again.corpus.table("Barnes")] == [
        d.text for d in paged.corpus.table("Barnes")
    ]


def test_clock_scales_to_the_nominal_reference_speed(monkeypatch):
    import hostspeed

    times = iter([2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S, hostspeed.NOMINAL_S, 3 * hostspeed.NOMINAL_S])
    monkeypatch.setattr(hostspeed, "sample", lambda every_cpu=False: next(times))
    clock = hostspeed.Clock()
    clock.mark()
    assert clock.factor() == pytest.approx(0.5)  # a host twice as slow halves the time
    clock.mark()
    assert clock.factor() == pytest.approx(0.5)  # the mean of before and after
    assert clock.reference_s() == pytest.approx(2 * hostspeed.NOMINAL_S)
