import base64
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditreduce import PureState, product_state, random_state, reduce
import quditreduce
from quditreduce import cli
from quditreduce.cli import main
from quditreduce.errors import InternalConsistencyError, OracleFailureError
from quditreduce.fileio import (STATE_FORMAT, STATE_FORMAT_BASE64, load_state,
                                load_trace, save_state, save_trace)
from quditreduce.reduction import DecompositionTrace

from conftest import make_records, pairs_doc

RT2 = np.sqrt(2.0)

#: A parameter meaning "leave the field out".
MISSING = object()


def bell_file(path):
    # sqrt(0.5) is the correctly rounded 1/sqrt(2), so the cross-check
    # prints the familiar 0.7071067811865476 on both lines.
    r = np.sqrt(0.5)
    save_state(path, PureState(2, 2, np.array([r, 0, 0, r])))
    return path


def random_file(path, n, l, seed):
    assert main(["random", "--n", str(n), "--l", str(l), "--seed", str(seed),
                 "--output", str(path)]) == 0
    return path


class TestRandom:
    def test_writes_normalized_state(self, tmp_path):
        path = random_file(tmp_path / "s.json", 2, 3, 42)
        doc = json.loads(path.read_text())
        assert doc["format"] == STATE_FORMAT_BASE64
        assert doc["seed"] == 42
        assert len(pairs_doc(path)["amplitudes"]) == 8
        state, renormalized, _ = load_state(path)
        assert abs(state.norm - 1.0) < 1e-12
        assert not renormalized

    def test_repeat_invocation_is_byte_identical(self, tmp_path):
        p1 = random_file(tmp_path / "a.json", 2, 3, 42)
        p2 = random_file(tmp_path / "b.json", 2, 3, 42)
        assert p1.read_bytes() == p2.read_bytes()

    def test_capacity_exceeded(self, tmp_path, capsys):
        code = main(["random", "--n", "2", "--l", "40", "--seed", "1",
                     "--output", str(tmp_path / "big.json")])
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_huge_l_names_the_cap(self, tmp_path, capsys):
        # 2**100000 has more digits than int-to-str conversion allows.
        code = main(["random", "--n", "2", "--l", "100000", "--seed", "1",
                     "--output", str(tmp_path / "big.json")])
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_missing_output_directory_exits_1(self, tmp_path, capsys):
        code = main(["random", "--n", "2", "--l", "2", "--seed", "1",
                     "--output", str(tmp_path / "missing" / "s.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_write_keeps_existing_output(self, tmp_path, monkeypatch):
        # A write that stops part way (a full disk) leaves the state that
        # was there before and no temp file.
        path = random_file(tmp_path / "s.json", 2, 2, 1)
        original = path.read_bytes()

        def full_disk(target, *args, **kwargs):
            with open(target, "w") as f:
                f.write('{"format": "qudit-st')
            raise OSError(errno.ENOSPC, "No space left on device", str(target))

        monkeypatch.setattr(cli, "save_state", full_disk)
        code = main(["random", "--n", "3", "--l", "2", "--seed", "5",
                     "--output", str(path)])
        assert code == 1
        assert path.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_bad_arguments_exit_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["random", "--n", "two", "--l", "3", "--seed", "1",
                  "--output", str(tmp_path / "s.json")])
        assert info.value.code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "-1"), ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--threshold", "-1"), ("--threshold", "nan"), ("--threshold", "inf"),
        ("--max-iters", "-5"), ("--max-iters", "0"), ("--max-iters", "1.5"),
    ])
    def test_bad_reduce_numbers_exit_1(self, tmp_path, capsys, flag, value):
        path = bell_file(tmp_path / "bell.json")
        with pytest.raises(SystemExit) as info:
            main(["reduce", "--input", str(path), flag, value])
        assert info.value.code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "bell.report.json").exists()

    def test_boundary_reduce_numbers_accepted(self):
        args = cli.build_parser().parse_args(
            ["reduce", "--input", "s.json", "--eps", "5e-324",
             "--threshold", "0", "--max-iters", "1"])
        assert (args.eps, args.threshold, args.max_iters) == (5e-324, 0.0, 1)


class TestReduce:
    def test_bell_state(self, tmp_path):
        path = bell_file(tmp_path / "bell.json")
        assert main(["reduce", "--input", str(path)]) == 0
        report = json.loads((tmp_path / "bell.report.json").read_text())
        assert report["converged"] is True
        assert report["support_after"] == 2
        assert report["bound"] == 2
        assert all(s["iterations"] == 0 for s in report["stages"])
        trace = json.loads((tmp_path / "bell.trace.json").read_text())
        assert trace["rotations"] == []

    def test_qubit_triple_within_bound(self, tmp_path):
        path = random_file(tmp_path / "s.json", 2, 3, 11)
        assert main(["reduce", "--input", str(path)]) == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["support_after"] <= 5

    def test_three_level_triple_within_bound(self, tmp_path):
        path = random_file(tmp_path / "s.json", 3, 3, 11)
        assert main(["reduce", "--input", str(path)]) == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["support_after"] <= 18
        assert all(s["residual"] < 1e-12 for s in report["stages"])
        assert report["seed"] == 11
        assert report["input_digest"].startswith("sha256:")

    def test_explicit_output_paths(self, tmp_path):
        path = random_file(tmp_path / "s.json", 2, 2, 0)
        out = tmp_path / "out.json"
        tr = tmp_path / "tr.json"
        rep = tmp_path / "rep.json"
        assert main(["reduce", "--input", str(path), "--output", str(out),
                     "--trace", str(tr), "--report", str(rep)]) == 0
        assert out.exists() and tr.exists() and rep.exists()

    def test_round_robin_strategy(self, tmp_path):
        f = np.array([1, 1]) / RT2
        path = tmp_path / "p.json"
        save_state(path, product_state([f, f, f]))
        assert main(["reduce", "--input", str(path), "--strategy",
                     "round-robin"]) == 0
        report = json.loads((tmp_path / "p.report.json").read_text())
        assert report["strategy"] == "round-robin"
        assert report["support_after"] == 1

    def test_nonconvergence_writes_partials_and_exits_2(self, tmp_path):
        # The partial outputs are a certificate of the run so far, whether
        # the first stage stops or a later one does. In the (3,2) state
        # the stage-0 targets (flats 1, 2, 3, 6) are zero, so stage 0
        # converges at once and stage 1 stops at the cap.
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 5, 7, 8]] = [0.5, 0.5, 0.5, 0.3, np.sqrt(0.16)]
        save_state(tmp_path / "late.json", PureState(3, 2, amps))
        cases = [(random_file(tmp_path / "s.json", 2, 3, 3), [False]),
                 (tmp_path / "late.json", [True, False])]
        for path, stages in cases:
            stem = path.name[:-5]
            code = main(["reduce", "--input", str(path), "--max-iters", "1"])
            assert code == 2
            report = json.loads((tmp_path / f"{stem}.report.json").read_text())
            assert report["converged"] is False
            assert [st["converged"] for st in report["stages"]] == stages
            assert (tmp_path / f"{stem}.reduced.json").exists()
            assert (tmp_path / f"{stem}.trace.json").exists()
            code = main(["verify", "--original", str(path),
                         "--trace", str(tmp_path / f"{stem}.trace.json"),
                         "--reduced", str(tmp_path / f"{stem}.reduced.json")])
            assert code == 0

    def test_heldout_five_level_state_converges_by_default(self, tmp_path):
        # Greedy needs 10,369 stage-0 steps on this (5,6) state, so it
        # converges only under a default cap with headroom over 10,000.
        state = random_state(5, 6, seed=1001)
        _, report = reduce(state)
        assert report.converged and report.support_after <= report.bound
        path = tmp_path / "s.json"
        save_state(path, state)
        assert main(["reduce", "--input", str(path)]) == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["converged"] is True

    def test_slightly_denormalized_input_is_flagged(self, tmp_path):
        path = random_file(tmp_path / "s.json", 2, 2, 8)
        doc = pairs_doc(path)
        doc["amplitudes"] = [[re * (1 + 3e-9), im * (1 + 3e-9)]
                             for re, im in doc["amplitudes"]]
        path.write_text(json.dumps(doc))
        assert main(["reduce", "--input", str(path)]) == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["input_renormalized"] is True

    def test_eps_whose_threshold_overflows_exits_1(self, tmp_path, capsys):
        path = random_file(tmp_path / "s.json", 3, 3, 1)
        assert main(["reduce", "--input", str(path), "--eps", "1e308"]) == 1
        assert "support_threshold" in capsys.readouterr().err
        assert not (tmp_path / "s.report.json").exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["reduce", "--input", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_input_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["reduce", "--input", str(path)]) == 1

    def test_no_input_no_batch_exits_1(self):
        assert main(["reduce"]) == 1

    def test_batch_directory(self, tmp_path):
        random_file(tmp_path / "a.json", 2, 2, 1)
        random_file(tmp_path / "b.json", 3, 2, 2)
        assert main(["reduce", "--batch", str(tmp_path)]) == 0
        for stem in ("a", "b"):
            assert (tmp_path / f"{stem}.reduced.json").exists()
            assert (tmp_path / f"{stem}.report.json").exists()
        # Second pass must not treat generated outputs as inputs.
        assert main(["reduce", "--batch", str(tmp_path)]) == 0
        assert not (tmp_path / "a.reduced.reduced.json").exists()

    def test_batch_unwritable_output_goes_on(self, tmp_path, capsys):
        random_file(tmp_path / "a.json", 2, 2, 1)
        random_file(tmp_path / "b.json", 3, 2, 2)
        (tmp_path / "a.reduced.json").mkdir()
        assert main(["reduce", "--batch", str(tmp_path)]) == 1
        assert "a.json" in capsys.readouterr().err
        for kind in ("reduced", "trace", "report"):
            assert (tmp_path / f"b.{kind}.json").is_file()

    def test_batch_failed_write_leaves_no_outputs(self, tmp_path, capsys):
        random_file(tmp_path / "a.json", 2, 2, 1)
        random_file(tmp_path / "b.json", 3, 2, 2)
        (tmp_path / "a.trace.json").mkdir()
        assert main(["reduce", "--batch", str(tmp_path)]) == 1
        assert "a.json" in capsys.readouterr().err
        assert not (tmp_path / "a.reduced.json").exists()
        assert not (tmp_path / "a.report.json").exists()
        assert not list(tmp_path.glob("*.part"))
        for kind in ("reduced", "trace", "report"):
            assert (tmp_path / f"b.{kind}.json").is_file()

    @pytest.mark.parametrize("batch", [False, True])
    def test_rerun_onto_directory_keeps_previous_outputs(self, tmp_path, capsys,
                                                         batch):
        # A destination that has become a directory fails its input before
        # anything is written, so the first run's outputs stay as they were.
        path = random_file(tmp_path / "a.json", 2, 2, 1)
        if batch:
            random_file(tmp_path / "b.json", 3, 2, 2)
        args = ["--batch", str(tmp_path)] if batch else ["--input", str(path)]
        assert main(["reduce", *args]) == 0
        first = {kind: (tmp_path / f"a.{kind}.json").read_bytes()
                 for kind in ("reduced", "report")}
        (tmp_path / "a.trace.json").unlink()
        (tmp_path / "a.trace.json").mkdir()
        capsys.readouterr()
        assert main(["reduce", *args]) == 1
        assert capsys.readouterr().err.count("a.json") == 1
        for kind, data in first.items():
            assert (tmp_path / f"a.{kind}.json").read_bytes() == data
        assert not list(tmp_path.glob("*.part"))
        if batch:
            for kind in ("reduced", "trace", "report"):
                assert (tmp_path / f"b.{kind}.json").is_file()

    @pytest.mark.parametrize("n, l, strategy", [(3, 3, "greedy"),
                                                (2, 4, "round-robin")])
    def test_input_and_batch_write_the_same_outputs(self, tmp_path, n, l,
                                                     strategy):
        single, batch = tmp_path / "single", tmp_path / "batch"
        for directory in (single, batch):
            directory.mkdir()
            random_file(directory / "s.json", n, l, 5)
        assert main(["reduce", "--input", str(single / "s.json"),
                     "--strategy", strategy]) == 0
        assert main(["reduce", "--batch", str(batch),
                     "--strategy", strategy]) == 0
        for kind in ("reduced", "trace"):
            assert ((single / f"s.{kind}.json").read_bytes()
                    == (batch / f"s.{kind}.json").read_bytes())
        reports = [json.loads((d / "s.report.json").read_text())
                   for d in (single, batch)]
        for report in reports:
            del report["duration_seconds"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag", ["--input", "--output", "--trace", "--report"])
    def test_batch_rejects_single_file_flags(self, tmp_path, capsys, flag):
        random_file(tmp_path / "a.json", 2, 2, 1)
        code = main(["reduce", "--batch", str(tmp_path), flag,
                     str(tmp_path / "x.json")])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    @pytest.mark.parametrize("field", ["l", "seed"])
    def test_boolean_header_field_exits_1(self, tmp_path, field):
        path = random_file(tmp_path / "s.json", 2, 1, 4)
        doc = json.loads(path.read_text())
        doc[field] = True
        path.write_text(json.dumps(doc))
        assert main(["reduce", "--input", str(path)]) == 1
        assert not (tmp_path / "s.report.json").exists()

    def test_batch_consistency_error_goes_on(self, tmp_path, monkeypatch, capsys):
        random_file(tmp_path / "a.json", 2, 2, 1)
        random_file(tmp_path / "b.json", 3, 2, 2)
        calls = []

        def reduce_failing_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise InternalConsistencyError("earlier-stage target revived")
            return cli_reduce(*args, **kwargs)

        cli_reduce = cli.reduce
        monkeypatch.setattr(cli, "reduce", reduce_failing_first)
        assert main(["reduce", "--batch", str(tmp_path)]) == 3
        assert "a.json: earlier-stage target revived" in capsys.readouterr().err
        assert not (tmp_path / "a.reduced.json").exists()
        assert (tmp_path / "b.reduced.json").is_file()

    def test_batch_number_too_large_goes_on(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(
            '{"format": "qudit-state/1", "n": 2, "l": 1, '
            '"amplitudes": [[1' + "0" * 400 + ', 0], [0, 0]]}')
        random_file(tmp_path / "b.json", 3, 2, 2)
        assert main(["reduce", "--batch", str(tmp_path)]) == 1
        assert "a.json" in capsys.readouterr().err
        assert not (tmp_path / "a.reduced.json").exists()
        for kind in ("reduced", "trace", "report"):
            assert (tmp_path / f"b.{kind}.json").is_file()

    def test_batch_deeply_nested_file_goes_on(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text("[" * 100_000 + "]" * 100_000)
        random_file(tmp_path / "b.json", 3, 2, 2)
        assert main(["reduce", "--batch", str(tmp_path)]) == 1
        assert "a.json" in capsys.readouterr().err
        for kind in ("reduced", "trace", "report"):
            assert (tmp_path / f"b.{kind}.json").is_file()

    @pytest.mark.parametrize("batch", [False, True])
    def test_failed_input_named_once(self, tmp_path, capsys, batch):
        # A missing input on its own, or a deeply nested one in a batch.
        path = tmp_path / "a.json"
        if batch:
            path.write_text("[" * 100_000 + "]" * 100_000)
        args = ["--batch", str(tmp_path)] if batch else ["--input", str(path)]
        assert main(["reduce", *args]) == 1
        assert capsys.readouterr().err.count("a.json") == 1

    @pytest.mark.parametrize("flags", [
        ["--output", "s.json"],
        ["--trace", "s.json"],
        ["--output", "o.json", "--trace", "o.json"],
        ["--report", "s.reduced.json"],
    ])
    def test_colliding_paths_exit_1(self, tmp_path, flags):
        path = random_file(tmp_path / "s.json", 2, 2, 1)
        original = path.read_bytes()
        code = main(["reduce", "--input", str(path),
                     *[str(tmp_path / f) if f.endswith(".json") else f
                       for f in flags]])
        assert code == 1
        assert path.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("name, flags", [
        # The reduced state's temp would overwrite the input.
        ("s.part", ["--output", "s"]),
        # The trace would be moved onto the reduced state's temp name.
        ("s.json", ["--trace", "X", "--output", "X.part"]),
    ])
    def test_paths_colliding_with_temps_exit_1(self, tmp_path, name, flags):
        path = random_file(tmp_path / name, 2, 2, 1)
        original = path.read_bytes()
        code = main(["reduce", "--input", str(path),
                     *[f if f.startswith("--") else str(tmp_path / f)
                       for f in flags]])
        assert code == 1
        assert path.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_batch_missing_directory(self, tmp_path):
        assert main(["reduce", "--batch", str(tmp_path / "none")]) == 1

    def test_batch_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["reduce", "--batch", str(empty)]) == 1


class TestVerify:
    def _reduce(self, tmp_path, n=3, l=2, seed=5):
        path = random_file(tmp_path / "s.json", n, l, seed)
        assert main(["reduce", "--input", str(path)]) == 0
        return (path, tmp_path / "s.trace.json", tmp_path / "s.reduced.json")

    def test_reduce_outputs_verify(self, tmp_path, capsys):
        original, trace, reduced = self._reduce(tmp_path)
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_perturbed_amplitude_fails(self, tmp_path):
        original, trace, reduced = self._reduce(tmp_path)
        doc = pairs_doc(reduced)
        doc["amplitudes"][0][0] += 1e-3
        reduced.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3

    def test_empty_trace_identity(self, tmp_path, capsys):
        state = random_state(2, 2, seed=9)
        original = tmp_path / "o.json"
        save_state(original, state)
        trace_path = tmp_path / "t.json"
        save_trace(trace_path, DecompositionTrace(1.0, make_records([]), state))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace_path), "--reduced", str(original)])
        assert code == 0
        assert "0.000000e+00" in capsys.readouterr().out

    @pytest.mark.parametrize("diagonal", [[2.0, 1.0], [np.nan, 1.0]])
    def test_non_unitary_rotation_fails(self, tmp_path, capsys, diagonal):
        # diag(2, 1) fixes level 1 of site 0, where all the amplitude sits,
        # so the round trip alone is exact.
        state = product_state([[0, 1], [0.6, 0.8]])
        path = tmp_path / "s.json"
        save_state(path, state)
        bad = make_records([(0, 0, 0, 1)], np.diag(diagonal).astype(complex))
        trace_path = tmp_path / "t.json"
        save_trace(trace_path, DecompositionTrace(1.0, bad, state))
        code = main(["verify", "--original", str(path), "--trace",
                     str(trace_path), "--reduced", str(path)])
        assert code == 3
        assert "rotations[0]" in capsys.readouterr().out

    @pytest.mark.parametrize("stage", [-7, 2**31 - 1])
    def test_every_stage_off_level_a_fails(self, tmp_path, capsys, stage):
        # One bad stage on every record of a (3,2) trace: the planes,
        # entries and round trip are those of the reduction, so only the
        # stage grammar catches it.
        original, trace, reduced = self._reduce(tmp_path)
        _, _, norm, records = load_trace(trace)
        assert len(records) > 1
        records["plane"][:, 0] = stage
        edited = DecompositionTrace(norm, records, load_state(reduced)[0])
        save_trace(trace, edited)
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3
        out = capsys.readouterr().out
        assert f"{len(records)} of {len(records)} rotations" in out
        assert f"rotations[0] has stage {stage} but level_a 0" in out

    def test_first_stage_off_level_a_is_named(self, tmp_path, capsys):
        # One bad record among good ones, past the first: its stage is a
        # level of the plane, but not level_a.
        original, trace, reduced = self._reduce(tmp_path, n=4, l=2)
        _, _, norm, records = load_trace(trace)
        i = len(records) // 2
        records["plane"][i, 0] = records["plane"][i, 3]
        save_trace(trace, DecompositionTrace(norm, records,
                                             load_state(reduced)[0]))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3
        assert f"1 of {len(records)} rotations break the stage grammar; " \
               f"rotations[{i}]" in capsys.readouterr().out

    def test_descending_stages_pass(self, tmp_path):
        # The grammar asks stage == level_a of each record alone: a stage-1
        # rotation may come before a stage-0 one.
        state = random_state(3, 2, seed=4)
        planes = [(1, 0, 1, 2), (0, 1, 0, 2)]
        unitaries = [np.linalg.qr(np.array([[1, 2j], [3, 4]]))[0],
                     np.linalg.qr(np.array([[2, 1], [1j, 3]]))[0]]
        reduced = state
        for (_, site, a, b), unitary in zip(planes, unitaries):
            reduced = quditreduce.apply_plane_rotation(reduced, site, a, b,
                                                       unitary)
        original, reduced_path = tmp_path / "o.json", tmp_path / "r.json"
        trace_path = tmp_path / "t.json"
        save_state(original, state)
        save_state(reduced_path, reduced)
        save_trace(trace_path, DecompositionTrace(
            1.0, make_records(planes, unitaries), reduced))
        assert main(["verify", "--original", str(original), "--trace",
                     str(trace_path), "--reduced", str(reduced_path)]) == 0

    def test_unnormalized_reduced_fails(self, tmp_path, capsys):
        # Scaled by 1 + 5e-10: every amplitude moves by less than the
        # 1e-9 round-trip tolerance, but the squared norm by ~1e-9.
        original, trace, reduced = self._reduce(tmp_path)
        doc = pairs_doc(reduced)
        doc["amplitudes"] = [[re * (1 + 5e-10), im * (1 + 5e-10)]
                             for re, im in doc["amplitudes"]]
        reduced.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3
        assert "norm" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [
        [1],
        # Too large for a double; NaN would pass every norm check.
        pytest.param(10**400, id="10**400"),
        float("nan"),
        pytest.param(MISSING, id="missing"),
    ])
    def test_malformed_trace_exits_1(self, tmp_path, capsys, value):
        original, trace, reduced = self._reduce(tmp_path)
        doc = json.loads(trace.read_text())
        if value is MISSING:
            del doc["original_norm"]
        else:
            doc["original_norm"] = value
        trace.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 1
        assert "original_norm" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda rot: rot[0], "'rotations' must be a list",
                     id="not-a-list"),
        pytest.param(lambda rot: rot + [0], r"rotations[1] must be a base64",
                     id="not-a-string"),
        pytest.param(lambda rot: ["!" + rot[0]], "rotations[0] is not valid",
                     id="not-base64"),
        pytest.param(lambda rot: [rot[0][:-4]], "not a whole number of",
                     id="partial-record"),
        pytest.param(lambda rot: rot + [base64.b64encode(
            make_records([(0, 2, 0, 1)]).tobytes()).decode("ascii")],
            "out-of-range plane in rotations[1], record[0]: site 2,",
            id="site-past-l"),
    ])
    def test_malformed_rotations_exit_1(self, tmp_path, capsys, edit,
                                        message):
        # Each edit leaves a well-formed JSON document that the
        # qudit-trace/2 reader refuses: one message naming the file, no
        # traceback.
        original, trace, reduced = self._reduce(tmp_path)
        doc = json.loads(trace.read_text())
        assert len(doc["rotations"]) == 1
        doc["rotations"] = edit(doc["rotations"])
        trace.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and err.count(str(trace)) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [-3.0, 0.5, 1 + 2e-9])
    def test_wrong_original_norm_fails(self, tmp_path, capsys, value):
        # The rotations, reduced state and round trip are those of the
        # reduction: only the recorded original norm is wrong.
        original, trace, reduced = self._reduce(tmp_path)
        doc = json.loads(trace.read_text())
        doc["original_norm"] = value
        trace.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith(f"verification FAILED: trace original_norm "
                               f"{value!r} differs from the original's norm")

    def test_original_norm_within_tolerance_verifies(self, tmp_path):
        # Off the original's norm by half of VERIFY_TOL: accepted.
        original, trace, reduced = self._reduce(tmp_path)
        doc = json.loads(trace.read_text())
        doc["original_norm"] = load_state(original)[0].norm + 5e-10
        trace.write_text(json.dumps(doc))
        assert main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)]) == 0

    def test_partial_trace_verifies(self, tmp_path):
        # A capped run records the norm of the state it started from.
        path = random_file(tmp_path / "s.json", 3, 2, 5)
        assert main(["reduce", "--input", str(path), "--max-iters", "1"]) == 2
        trace = tmp_path / "s.trace.json"
        assert load_trace(trace)[2] == load_state(path)[0].norm
        code = main(["verify", "--original", str(path), "--trace", str(trace),
                     "--reduced", str(tmp_path / "s.reduced.json")])
        assert code == 0

    @pytest.mark.parametrize("command, token", [("verify", "NaN"),
                                                ("reduce", "Infinity")])
    def test_non_finite_json_token_exits_1(self, tmp_path, capsys, command,
                                           token):
        # json.dumps writes NaN and Infinity as these non-JSON tokens: in
        # the reduced file verify reads, or in the input reduce reads.
        original, trace, reduced = self._reduce(tmp_path)
        path = reduced if command == "verify" else original
        doc = pairs_doc(path)
        doc["amplitudes"][0] = [float(token), 0.0]
        path.write_text(json.dumps(doc))
        assert token in path.read_text()
        argv = (["verify", "--original", str(original), "--trace", str(trace),
                 "--reduced", str(reduced)] if command == "verify"
                else ["reduce", "--input", str(original)])
        assert main(argv) == 1
        assert f"{path}: amplitudes must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--original", "--trace", "--reduced"])
    def test_malformed_file_is_named(self, tmp_path, capsys, flag):
        # One truncated state file: a bad state, and no trace at all.
        original, trace, reduced = self._reduce(tmp_path)
        doc = pairs_doc(original)
        doc["amplitudes"] = doc["amplitudes"][:1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        files = {"--original": original, "--trace": trace, "--reduced": reduced}
        files[flag] = bad
        code = main(["verify", *(str(x) for kv in files.items() for x in kv)])
        assert code == 1
        assert capsys.readouterr().err.count(str(bad)) == 1

    def test_rephased_amplitude_fails_round_trip(self, tmp_path, capsys):
        # A unit phase on one reduced amplitude keeps its norm exactly, so
        # only the round trip can catch it.
        original, trace, reduced = self._reduce(tmp_path)
        doc = pairs_doc(reduced)
        re, im = doc["amplitudes"][0]
        doc["amplitudes"][0] = [-im, re]
        reduced.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3
        assert capsys.readouterr().out.splitlines()[-1] == "verification FAILED"

    def test_small_error_on_every_amplitude_fails(self, tmp_path, capsys):
        # 0.9e-9 in a random phase on each of 4096 amplitudes of the
        # original: below 1e-9 in every amplitude, 5.76e-8 in 2-norm.
        original, trace, reduced = self._reduce(tmp_path, 2, 12, 3)
        doc = pairs_doc(original)
        amps = np.array(doc["amplitudes"]) @ [1, 1j]
        amps += 0.9e-9 * np.exp(2j * np.pi * np.random.default_rng(0).random(4096))
        doc["amplitudes"] = [[a.real, a.imag] for a in amps.tolist()]
        original.write_text(json.dumps(doc))
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(reduced)])
        assert code == 3
        assert "2-norm error: 5.75" in capsys.readouterr().out

    def test_renormalized_original_verifies(self, tmp_path):
        # reduce renormalizes an input whose norm is off by 5e-9; verify
        # loads the original the same way, so the round trip matches.
        path = random_file(tmp_path / "s.json", 3, 2, 5)
        doc = pairs_doc(path)
        doc["amplitudes"] = [[re * (1 + 5e-9), im * (1 + 5e-9)]
                             for re, im in doc["amplitudes"]]
        path.write_text(json.dumps(doc))
        assert main(["reduce", "--input", str(path)]) == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["input_renormalized"] is True
        code = main(["verify", "--original", str(path), "--trace",
                     str(tmp_path / "s.trace.json"), "--reduced",
                     str(tmp_path / "s.reduced.json")])
        assert code == 0

    def test_shape_mismatch_exits_1(self, tmp_path):
        original, trace, _ = self._reduce(tmp_path)
        other = random_file(tmp_path / "other.json", 2, 2, 0)
        code = main(["verify", "--original", str(original), "--trace",
                     str(trace), "--reduced", str(other)])
        assert code == 1

    def test_unreadable_file_exits_1(self, tmp_path):
        original, trace, reduced = self._reduce(tmp_path)
        code = main(["verify", "--original", str(tmp_path / "gone.json"),
                     "--trace", str(trace), "--reduced", str(reduced)])
        assert code == 1

    def test_pairs_original_against_base64_reduced(self, tmp_path):
        # The original of 8,192 amplitudes is rewritten as qudit-state/1;
        # reduce then writes the reduced state as qudit-state/2.
        original = random_file(tmp_path / "s.json", 2, 13, 3)
        original.write_text(json.dumps(pairs_doc(original)))
        assert main(["reduce", "--input", str(original)]) == 0
        reduced = tmp_path / "s.reduced.json"
        assert json.loads(original.read_text())["format"] == STATE_FORMAT
        assert json.loads(reduced.read_text())["format"] == STATE_FORMAT_BASE64
        code = main(["verify", "--original", str(original), "--trace",
                     str(tmp_path / "s.trace.json"), "--reduced", str(reduced)])
        assert code == 0


class TestSchmidt:
    def test_bell(self, tmp_path, capsys):
        path = bell_file(tmp_path / "bell.json")
        assert main(["schmidt", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("0.7071067811865476") >= 2
        diff = float(out.splitlines()[-1].split()[-1])
        assert diff < 1e-12

    def test_product_state(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_state(path, product_state([[1, 0, 0], [0, 1, 0]]))
        assert main(["schmidt", "--input", str(path)]) == 0
        diff = float(capsys.readouterr().out.splitlines()[-1].split()[-1])
        assert diff < 1e-10

    def test_random_five_level(self, tmp_path, capsys):
        path = random_file(tmp_path / "s.json", 5, 2, 40)
        assert main(["schmidt", "--input", str(path)]) == 0
        diff = float(capsys.readouterr().out.splitlines()[-1].split()[-1])
        assert diff < 1e-8

    def test_rejects_non_bipartite(self, tmp_path):
        path = random_file(tmp_path / "s.json", 2, 3, 1)
        assert main(["schmidt", "--input", str(path)]) == 1

    def test_oracle_failure_exits_2(self, tmp_path, monkeypatch):
        def boom(state):
            raise OracleFailureError("stalled", residual=1.0)

        monkeypatch.setattr(cli, "schmidt_coefficients", boom)
        path = bell_file(tmp_path / "bell.json")
        assert main(["schmidt", "--input", str(path)]) == 2


@pytest.mark.parametrize("command", ["reduce", "schmidt", "verify"])
def test_huge_header_exits_1_naming_file_and_cap(tmp_path, capsys, command):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"format": "qudit-state/1", "n": 2, "l": 10**7,
                               "amplitudes": [[1, 0]]}))
    args = [command, "--input", str(big)]
    if command == "verify":
        small = random_file(tmp_path / "s.json", 2, 2, 1)
        assert main(["reduce", "--input", str(small)]) == 0
        args = ["verify", "--original", str(big),
                "--trace", str(tmp_path / "s.trace.json"),
                "--reduced", str(tmp_path / "s.reduced.json")]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count(str(big)) == 1
    assert "cap" in err


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # Under warn_default_encoding, every open() without an encoding warns,
    # and -W error turns that warning into a failure.
    env = dict(os.environ,
               PYTHONPATH=str(Path(quditreduce.__file__).parents[1]))
    state = tmp_path / "s.json"
    commands = (
        ["random", "--n", "2", "--l", "3", "--seed", "1", "--output", str(state)],
        ["reduce", "--input", str(state)],
        ["verify", "--original", str(state), "--trace",
         str(tmp_path / "s.trace.json"), "--reduced",
         str(tmp_path / "s.reduced.json")],
    )
    for command in commands:
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "quditreduce.cli", *command],
            env=env, capture_output=True, text=True, encoding="utf-8",
            timeout=120)
        assert run.returncode == 0, run.stderr


class TestParser:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["reduce", "--nope"])
        assert info.value.code == 1

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_schmidt", crash)
        with pytest.raises(RuntimeError, match="boom"):
            main(["schmidt", "--input", str(bell_file(tmp_path / "b.json"))])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "quditreduce" in capsys.readouterr().out
