"""Self-test of the benchmark harness on tiny shapes, (2,3) and (3,2).

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

QR = run.import_package()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run.WORKLOADS["tiny"]


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


@pytest.fixture
def tiny_inputs(tmp_path):
    directory = tmp_path / "inputs"
    directory.mkdir()
    return directory, run.make_inputs(QR, TINY, 3, "default", directory)


def _emitted(trace):
    return run.run_workload(QR, TINY, seed=3, seconds=0.2, trace=trace,
                            input_set="default")


def test_untraced_run_emits_every_end_to_end_metric():
    result = _emitted(trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    result = _emitted(trace=True)
    assert result["correct"]
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert all(m["unit"] for m in result["metrics"].values())


def test_self_times_sum_to_root_totals_and_names_are_restored(tiny_inputs):
    directory, inputs = tiny_inputs
    table = tracer.patch_table(QR)
    before = [getattr(module, attr) for module, attr, _, _ in table]
    rec = tracer.Tracer(table)
    with rec.installed():
        assert all(getattr(module, attr) is not fn
                   for (module, attr, _, _), fn in zip(table, before))
        run.run_pass(QR, TINY, inputs, directory, speed.SpeedProbe())
    assert [getattr(module, attr) for module, attr, _, _ in table] == before

    spans = rec.take()
    assert spans.count("state.rotate_pair_inplace") > 0
    assert spans.count("spectral.hermitian_eigenvalues") == 2
    root = np.arange(len(spans.parent))
    for i, parent in enumerate(spans.parent):
        if parent >= 0:
            root[i] = root[parent]
    per_root = np.bincount(root, weights=spans.self_time, minlength=len(root))
    roots = spans.parent < 0
    np.testing.assert_allclose(per_root[roots], spans.duration[roots],
                               rtol=1e-9, atol=1e-12)
    assert (spans.self_time >= -1e-9).all()


def test_same_seed_same_inputs_other_seed_other_amplitudes(tmp_path):
    def files(seed):
        directory = tmp_path / f"seed{seed}-{len(list(tmp_path.iterdir()))}"
        directory.mkdir()
        return [p.read_bytes() for p, _, _ in
                run.make_inputs(QR, TINY, seed, "default", directory)]
    assert files(5) == files(5)
    assert files(5) != files(6)


def test_outside_check_catches_what_verify_passes(tiny_inputs):
    # An unreduced "reduced" file with an empty trace passes verify.
    directory, inputs = tiny_inputs
    record = run.run_pass(QR, TINY, inputs, directory, speed.SpeedProbe())
    assert not record.failures
    path = inputs[0][0]
    shutil.copy(path, run.derived(path, "reduced"))
    trace_path = run.derived(path, "trace")
    doc = json.loads(trace_path.read_text())
    doc["rotations"] = []
    trace_path.write_text(json.dumps(doc))
    assert QR.cli.main(["verify", "--original", str(path), "--trace",
                        str(trace_path), "--reduced",
                        str(run.derived(path, "reduced"))]) == 0
    checked = run.Pass()
    run.check_outputs(QR, inputs, checked, replay=True)
    assert len(checked.failures) == 1 and path.name in checked.failures[0]


def test_a_crashing_command_counts_as_failed(tiny_inputs, monkeypatch):
    directory, inputs = tiny_inputs

    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(QR.cli, "cmd_verify", crash)
    record = run.run_pass(QR, TINY, inputs, directory, speed.SpeedProbe())
    assert len(record.failures) == len(inputs)
    assert all("RuntimeError: boom" in f for f in record.failures)
