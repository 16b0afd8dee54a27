import base64
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quditreduce import fileio, reduction
from quditreduce.cli import main

from quditreduce import (
    CapacityError,
    DecompositionTrace,
    PureState,
    random_state,
    reduce,
)
from quditreduce.fileio import (
    MAX_NORM_DEVIATION,
    STATE_FORMAT,
    STATE_FORMAT_BASE64,
    TRACE_FORMAT_BASE64,
    file_digest,
    load_state,
    load_trace,
    read_state_file,
    report_to_dict,
    save_report,
    save_state,
    save_trace,
)

from conftest import RECORD, make_records, state_doc

REPORT_FIELDS = {
    "format", "tool_version", "input_digest", "strategy", "epsilon",
    "max_iters_per_stage", "threshold", "seed", "duration_seconds",
    "input_renormalized", "n", "l", "converged", "support_before",
    "support_after", "bound", "norm_drift", "stage_preservation", "stages",
}


#: A parameter meaning "leave the field out".
MISSING = object()


def write_doc(path, doc):
    path.write_text(json.dumps(doc))


def base64_doc(n, l, amps, **extra):
    """A qudit-state/2 document of ``amps`` as little-endian complex128."""
    payload = base64.b64encode(np.asarray(amps, dtype="<c16")).decode("ascii")
    doc = {"format": STATE_FORMAT_BASE64, "n": n, "l": l, "amplitudes": payload}
    doc.update(extra)
    return doc


def format_of(path):
    return json.loads(path.read_text(encoding="utf-8"))["format"]


class TestStateRoundTrip:
    @pytest.mark.parametrize("n, l", [(2, 3), (3, 2), (5, 2)])
    def test_bit_exact(self, tmp_path, n, l):
        s = random_state(n, l, seed=n * 10 + l)
        path = tmp_path / "s.json"
        save_state(path, s, seed=n * 10 + l)
        loaded, renormalized, seed = load_state(path)
        assert np.array_equal(loaded.amplitudes, s.amplitudes)
        assert not renormalized
        assert seed == n * 10 + l
        assert (loaded.n, loaded.l) == (n, l)

    def test_seed_omitted(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(path, random_state(2, 2, seed=0))
        _, _, seed = load_state(path)
        assert seed is None

    def test_reduced_output_round_trips_bit_exact(self, tmp_path):
        trace, _ = reduce(random_state(3, 2, seed=6))
        path = tmp_path / "r.json"
        save_state(path, trace.final_state)
        loaded, renormalized, _ = load_state(path)
        assert not renormalized
        assert np.array_equal(loaded.amplitudes, trace.final_state.amplitudes)


class TestNormPolicy:
    def test_small_deviation_renormalized_and_flagged(self, tmp_path):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0 + 4e-9  # norm off by ~4e-9: repairable
        path = tmp_path / "s.json"
        write_doc(path, state_doc(2, 2, amps))
        loaded, renormalized, _ = load_state(path)
        assert renormalized
        assert abs(loaded.norm - 1.0) < 1e-15

    def test_renormalized_amplitudes_are_raw_over_norm(self, tmp_path):
        # Repaired in place, bit for bit as dividing the raw amplitudes.
        amps = random_state(3, 2, seed=4).amplitudes * (1 + 3e-9)
        path = tmp_path / "s.json"
        write_doc(path, state_doc(3, 2, amps))
        _, _, raw, _ = read_state_file(path)
        loaded, renormalized, _ = load_state(path)
        assert renormalized
        norm = float(np.sum(np.abs(raw) ** 2)) ** 0.5
        assert np.array_equal(loaded.amplitudes, raw / norm)

    def test_large_deviation_rejected(self, tmp_path):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.001
        path = tmp_path / "s.json"
        write_doc(path, state_doc(2, 2, amps))
        with pytest.raises(ValueError, match="norm"):
            load_state(path)

    def test_policy_threshold(self):
        assert MAX_NORM_DEVIATION == 1e-8


class TestStateValidation:
    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "s.json"
        doc = state_doc(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        doc["format"] = "something-else"
        write_doc(path, doc)
        with pytest.raises(ValueError, match="format"):
            read_state_file(path)

    @pytest.mark.parametrize("field", ["n", "l", "amplitudes"])
    def test_missing_field(self, tmp_path, field):
        path = tmp_path / "s.json"
        doc = state_doc(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        del doc[field]
        write_doc(path, doc)
        with pytest.raises(ValueError):
            read_state_file(path)

    def test_wrong_amplitude_count(self, tmp_path):
        path = tmp_path / "s.json"
        write_doc(path, state_doc(2, 3, np.array([1, 0, 0, 0], dtype=complex)))
        with pytest.raises(ValueError, match="expected 8"):
            read_state_file(path)

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "s.json"
        doc = state_doc(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        doc["amplitudes"][2] = [1.0]
        write_doc(path, doc)
        with pytest.raises(ValueError, match="pair"):
            read_state_file(path)

    def test_non_numeric_pair_entry(self, tmp_path):
        path = tmp_path / "s.json"
        doc = state_doc(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        doc["amplitudes"][1] = ["0", 0.0]
        write_doc(path, doc)
        with pytest.raises(ValueError, match="pair"):
            read_state_file(path)

    @pytest.mark.parametrize("field", ["n", "l", "seed"])
    def test_rejects_boolean_integer_fields(self, tmp_path, field):
        # JSON true is a Python bool, an int subclass; it must not pass
        # as 1 (l, seed) or be compared as a number (n).
        path = tmp_path / "s.json"
        doc = state_doc(2, 1, np.array([1, 0], dtype=complex), seed=3)
        doc[field] = True
        write_doc(path, doc)
        with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
            read_state_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("not json {")
        with pytest.raises(ValueError):
            read_state_file(path)

    @pytest.mark.parametrize("read", [read_state_file, load_trace])
    def test_deep_nesting_is_value_error(self, tmp_path, read):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            read(path)

    def test_capacity_cap(self, tmp_path):
        # 2**27 amplitudes, one over the cap, judged before any is read.
        path = tmp_path / "s.json"
        write_doc(path, state_doc(2, 27, [1]))
        with pytest.raises(CapacityError):
            load_state(path)

    def test_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ValueError) as info:
            read_state_file(path)
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("read, fmt", [(read_state_file, STATE_FORMAT),
                                           (load_state, STATE_FORMAT),
                                           (load_trace, TRACE_FORMAT_BASE64)])
    def test_huge_header_is_over_the_cap(self, tmp_path, read, fmt):
        # n**l of this header has 3,010,300 digits; it is never formed.
        path = tmp_path / "s.json"
        write_doc(path, {"format": fmt, "n": 2, "l": 10**7,
                         "amplitudes": [[1, 0]], "original_norm": 1.0,
                         "rotations": []})
        with pytest.raises(CapacityError, match="exceeds the amplitude cap") as info:
            read(path)
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("read, fmt", [(read_state_file, STATE_FORMAT),
                                           (load_state, STATE_FORMAT)])
    def test_number_too_large_for_a_double(self, tmp_path, read, fmt):
        # 10**400 is a JSON integer that no double can hold.
        path = tmp_path / "s.json"
        write_doc(path, state_doc(2, 1, [1, 0]) | {
            "format": fmt, "amplitudes": [[10**400, 0], [0, 0]]})
        with pytest.raises(ValueError, match="too large for a double") as info:
            read(path)
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_json_token(self, tmp_path, token):
        # json.load reads these non-JSON tokens as floats; /1 rejects them
        # as /2 rejects the same values.
        path = tmp_path / "s.json"
        path.write_text(f'{{"format": "{STATE_FORMAT}", "n": 2, "l": 1, '
                        f'"amplitudes": [[{token}, 0], [0, 0]]}}')
        with pytest.raises(ValueError, match="amplitudes must be finite") as info:
            read_state_file(path)
        assert str(info.value).count(str(path)) == 1


class TestBase64States:
    @pytest.mark.parametrize("n, l", [(2, 1), (2, 12), (4, 6), (2, 13), (3, 8)])
    def test_written_as_base64_and_bit_exact(self, tmp_path, n, l):
        # Every size, the 4,096 amplitudes of (2,12) and (4,6) included,
        # is written as /2 and loads as its /1 twin does.
        s = random_state(n, l, seed=n + l)
        path, twin = tmp_path / "s.json", tmp_path / "twin.json"
        save_state(path, s, seed=n + l)
        write_doc(twin, state_doc(n, l, s.amplitudes, seed=n + l))
        assert format_of(path) == STATE_FORMAT_BASE64
        loaded, renormalized, seed = load_state(path)
        assert loaded.amplitudes.tobytes() == s.amplitudes.tobytes()
        assert not renormalized
        assert seed == n + l
        assert (loaded.n, loaded.l) == (n, l)
        from_twin, renormalized, seed = load_state(twin)
        assert from_twin.amplitudes.tobytes() == s.amplitudes.tobytes()
        assert (renormalized, seed) == (False, n + l)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.none() | st.integers(-2**63, 2**63))
    def test_round_trip_every_shape(self, tmp_path, n, l, state_seed, seed):
        # Each example overwrites the same files, so sharing tmp_path
        # across examples is harmless.
        s = random_state(n, l, seed=state_seed)
        path, twin = tmp_path / "s.json", tmp_path / "twin.json"
        save_state(path, s, seed=seed)
        extra = {} if seed is None else {"seed": seed}
        write_doc(twin, state_doc(n, l, s.amplitudes, **extra))
        assert format_of(path) == STATE_FORMAT_BASE64
        for p in (path, twin):
            got_n, got_l, amps, got_seed = read_state_file(p)
            assert (got_n, got_l, got_seed) == (n, l, seed)
            assert amps.tobytes() == s.amplitudes.tobytes()

    def test_both_formats_load_bit_identically(self, tmp_path):
        s = random_state(3, 4, seed=11)
        pairs, blob = tmp_path / "pairs.json", tmp_path / "blob.json"
        write_doc(pairs, state_doc(3, 4, s.amplitudes))
        save_state(blob, s)
        assert (format_of(pairs), format_of(blob)) == (STATE_FORMAT,
                                                       STATE_FORMAT_BASE64)
        from_pairs, from_blob = load_state(pairs)[0], load_state(blob)[0]
        assert from_pairs.amplitudes.tobytes() == from_blob.amplitudes.tobytes()

    def test_slightly_off_norm_renormalized(self, tmp_path):
        amps = random_state(3, 2, seed=4).amplitudes * (1 + 3e-9)
        path = tmp_path / "s.json"
        write_doc(path, base64_doc(3, 2, amps))
        _, _, raw, _ = read_state_file(path)
        assert raw.flags.writeable and raw.dtype == np.complex128
        loaded, renormalized, _ = load_state(path)
        assert renormalized
        norm = float(np.sum(np.abs(raw) ** 2)) ** 0.5
        assert np.array_equal(loaded.amplitudes, raw / norm)

    def rejects(self, path, doc, match, error=ValueError):
        write_doc(path, doc)
        with pytest.raises(error, match=match) as info:
            read_state_file(path)
        assert str(info.value).count(str(path)) == 1

    def test_rejects_non_string_payload(self, tmp_path):
        doc = state_doc(2, 1, np.array([1, 0], dtype=complex))
        doc["format"] = STATE_FORMAT_BASE64
        self.rejects(tmp_path / "s.json", doc, "base64 string")

    @pytest.mark.parametrize("char", ["!", "\u00e9", " ", "\n"])
    def test_rejects_non_alphabet_character(self, tmp_path, char):
        # Inserted, not replacing: a lenient decoder would skip it and
        # read the intact payload.
        doc = base64_doc(2, 1, [1, 0])
        doc["amplitudes"] = char + doc["amplitudes"]
        self.rejects(tmp_path / "s.json", doc, "not valid base64")

    def test_rejects_bad_padding(self, tmp_path):
        doc = base64_doc(2, 1, [1, 0])
        assert doc["amplitudes"].endswith("=")
        doc["amplitudes"] = doc["amplitudes"][:-1]
        self.rejects(tmp_path / "s.json", doc, "not valid base64")

    def test_rejects_payload_cut_by_four_characters(self, tmp_path):
        doc = base64_doc(2, 2, [1, 0, 0, 0])
        doc["amplitudes"] = doc["amplitudes"][:-4]
        self.rejects(tmp_path / "s.json", doc, "expected 4 amplitudes")

    @pytest.mark.parametrize("edit", [lambda b: b[:-16], lambda b: b + bytes(16),
                                      lambda b: b[:-1], lambda b: b""])
    def test_rejects_wrong_decoded_length(self, tmp_path, edit):
        blob = np.array([1, 0, 0, 0], dtype="<c16").tobytes()
        doc = base64_doc(2, 2, [1, 0, 0, 0])
        doc["amplitudes"] = base64.b64encode(edit(blob)).decode("ascii")
        self.rejects(tmp_path / "s.json", doc, "expected 4 amplitudes")

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf),
                                     complex(-np.inf, 0)])
    def test_rejects_non_finite_values(self, tmp_path, bad):
        self.rejects(tmp_path / "s.json", base64_doc(2, 1, [1, bad]), "finite")

    @pytest.mark.parametrize("l", [27, 10**7])
    def test_over_cap_header_judged_before_payload(self, tmp_path, l):
        # The payload is not base64 at all: the header check comes first.
        doc = {"format": STATE_FORMAT_BASE64, "n": 2, "l": l,
               "amplitudes": "!"}
        self.rejects(tmp_path / "s.json", doc, "exceeds the amplitude cap",
                     CapacityError)

    @pytest.mark.parametrize("field", ["n", "l", "seed"])
    def test_rejects_boolean_integer_fields(self, tmp_path, field):
        doc = base64_doc(2, 1, [1, 0], seed=3)
        doc[field] = True
        self.rejects(tmp_path / "s.json", doc, f"'{field}' must be an integer")

    def test_format_tag_names_both_versions(self, tmp_path):
        doc = base64_doc(2, 1, [1, 0])
        doc["format"] = "qudit-state/3"
        self.rejects(tmp_path / "s.json", doc,
                     f"expected '{STATE_FORMAT}' or '{STATE_FORMAT_BASE64}'")


class TestTraceFiles:
    @pytest.mark.parametrize("n, l", [(1, 2), (2, 0)])
    def test_rejects_bad_shape(self, tmp_path, n, l):
        path = tmp_path / "t.json"
        write_doc(path, base64_trace_doc(n, l))
        with pytest.raises(ValueError, match="need n >= 2 and l >= 1"):
            load_trace(path)

    def test_round_trip(self, tmp_path):
        s = random_state(3, 2, seed=14)
        trace, _ = reduce(s)
        path = tmp_path / "t.json"
        save_trace(path, trace)
        n, l, original_norm, rotations = load_trace(path)
        assert (n, l) == (3, 2)
        assert original_norm == trace.original_norm
        assert len(rotations) == len(trace.rotations)
        assert rotations["plane"].tolist() == trace.rotations["plane"].tolist()
        assert np.array_equal(rotations["entries"], trace.rotations["entries"])

    def test_rejects_out_of_range_rotation(self, tmp_path):
        trace, _ = reduce(random_state(2, 2, seed=1))
        records = trace.rotations.copy()
        assert len(records), "fixture needs at least one rotation"
        records["plane"][0, 1] = 5
        path = tmp_path / "t.json"
        write_doc(path, base64_trace_doc(2, 2, records))
        with pytest.raises(ValueError, match="out-of-range"):
            load_trace(path)

    @pytest.mark.parametrize("field, value", [("site", 2**31 - 1),
                                              ("site", -2**31),
                                              ("level_b", 2**31 - 1)])
    def test_rejects_huge_rotation_field(self, tmp_path, field, value):
        # The extremes of a packed <i4 plane field, named exactly.
        trace, _ = reduce(random_state(2, 2, seed=1))
        records = trace.rotations.copy()
        records["plane"][1, ("stage", "site", "level_a",
                             "level_b").index(field)] = value
        path = tmp_path / "t.json"
        write_doc(path, base64_trace_doc(2, 2, records))
        _, site, level_a, level_b = records["plane"][1].tolist()
        with pytest.raises(ValueError, match=rf"out-of-range plane in "
                                             rf"rotations\[0\], record\[1\]: "
                                             rf"site {site}, levels "
                                             rf"\({level_a}, {level_b}\)"):
            load_trace(path)

    @pytest.mark.parametrize("stage", [2**31 - 1, -2**31])
    def test_loads_any_int32_stage(self, tmp_path, stage):
        # The file format bounds a stage by <i4 alone; verify judges it.
        trace, _ = reduce(random_state(2, 2, seed=1))
        records = trace.rotations.copy()
        records["plane"][1, 0] = stage
        path = tmp_path / "t.json"
        write_doc(path, base64_trace_doc(2, 2, records))
        assert load_trace(path)[3]["plane"][1, 0] == stage

    def test_rejects_hand_written_v1(self, tmp_path, capsys):
        # qudit-trace/2 is the one trace format; a /1 document of rotation
        # objects is refused by its format tag.
        path = tmp_path / "t.json"
        write_doc(path, {"format": "qudit-trace/1", "n": 2, "l": 2,
                         "original_norm": 1.0,
                         "rotations": [{"stage": 0, "site": 1, "level_a": 0,
                                        "level_b": 1,
                                        "entries": [[[1, 0], [0, 0]],
                                                    [[0, 0], [1, 0]]]}]})
        with pytest.raises(ValueError, match="unrecognized format "
                                             "'qudit-trace/1', expected "
                                             "'qudit-trace/2'") as info:
            load_trace(path)
        assert str(info.value).count(str(path)) == 1
        state = tmp_path / "s.json"
        save_state(state, random_state(2, 2, seed=1))
        assert main(["verify", "--original", str(state), "--trace", str(path),
                     "--reduced", str(state)]) == 1
        assert "expected 'qudit-trace/2'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        [1], "1", True, None, pytest.param(10**400, id="10**400"),
        math.nan, -math.inf, pytest.param(MISSING, id="missing")])
    def test_rejects_non_numeric_original_norm(self, tmp_path, value):
        # 10**400 is a JSON integer no double holds; NaN and -Infinity
        # are the non-JSON tokens json.dumps writes for these floats.
        path = tmp_path / "t.json"
        save_trace(path, DecompositionTrace(1.0, make_records([]),
                                            random_state(2, 2, seed=1)))
        doc = json.loads(path.read_text())
        if value is MISSING:
            del doc["original_norm"]
        else:
            doc["original_norm"] = value
        write_doc(path, doc)
        with pytest.raises(ValueError, match="field 'original_norm' must "
                                             "be a finite number") as info:
            load_trace(path)
        assert str(info.value).count(str(path)) == 1


def base64_trace_doc(n, l, *chunks, original_norm=1.0):
    """A qudit-trace/2 document with one base64 string per record array."""
    return {"format": TRACE_FORMAT_BASE64, "n": n, "l": l,
            "original_norm": original_norm,
            "rotations": [base64.b64encode(c.tobytes()).decode("ascii")
                          for c in chunks]}


def fields_and_entries(records):
    return ([tuple(plane) for plane in records["plane"].tolist()],
            records["entries"])


class TestBase64Traces:
    def test_record_layout(self):
        assert fileio.TRACE_RECORD is reduction.TRACE_RECORD
        assert fileio.TRACE_RECORD == RECORD
        assert RECORD.itemsize == 80

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 40),
           st.integers(0, 2**32 - 1))
    def test_round_trip_every_shape(self, tmp_path, n, l, count, seed):
        # Arbitrary in-range planes and arbitrary complex entries (not
        # unitary: the file format does not judge them).
        rng = np.random.default_rng(seed)
        planes, entries = [], []
        for _ in range(count):
            b = int(rng.integers(1, n))
            planes.append((int(rng.integers(0, n - 1)), int(rng.integers(0, l)),
                           int(rng.integers(0, b)), b))
            entries.append(rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)))
        rotations = make_records(planes, entries)
        trace = DecompositionTrace(float(rng.uniform(0.5, 2)), rotations,
                                   random_state(n, l, seed=seed))
        path = tmp_path / "t.json"
        save_trace(path, trace)
        assert json.loads(path.read_text())["format"] == TRACE_FORMAT_BASE64
        got_n, got_l, original_norm, got = load_trace(path)
        assert (got_n, got_l, original_norm) == (n, l, trace.original_norm)
        got_fields, got_entries = fields_and_entries(got)
        want_fields, want_entries = fields_and_entries(rotations)
        assert got_fields == want_fields
        assert all(type(v) is int for f in got_fields for v in f)
        assert got_entries.tobytes() == want_entries.tobytes()

    def test_entries_are_views_of_one_writable_array(self, tmp_path):
        trace, _ = reduce(random_state(3, 2, seed=14))
        path = tmp_path / "t.json"
        save_trace(path, trace)
        rotations = load_trace(path)[3]
        entries = rotations["entries"]
        assert entries.shape == (len(rotations), 2, 2)
        assert entries.dtype == np.complex128 and rotations.flags.writeable
        assert np.shares_memory(entries, rotations)

    @pytest.mark.parametrize("strategy", ["greedy", "round-robin"])
    @pytest.mark.parametrize("n, l", [(2, 4), (3, 3), (8, 2)])
    def test_round_trip_is_byte_equal(self, tmp_path, strategy, n, l):
        trace, _ = reduce(random_state(n, l, seed=6), strategy=strategy)
        path = tmp_path / "t.json"
        save_trace(path, trace)
        got = load_trace(path)[3]
        assert got.dtype == trace.rotations.dtype == RECORD
        assert got.tobytes() == trace.rotations.tobytes()

    def test_empty_trace_is_an_empty_list(self, tmp_path):
        path = tmp_path / "t.json"
        save_trace(path, DecompositionTrace(1.0, make_records([]),
                                            random_state(2, 2, seed=1)))
        doc = json.loads(path.read_text())
        assert (doc["format"], doc["rotations"]) == (TRACE_FORMAT_BASE64, [])
        n, l, original_norm, rotations = load_trace(path)
        assert (n, l, original_norm) == (2, 2, 1.0)
        assert rotations.dtype == RECORD and len(rotations) == 0

    def test_emptied_rotations_load_as_empty_trace(self, tmp_path):
        trace, _ = reduce(random_state(2, 3, seed=2))
        path = tmp_path / "t.json"
        save_trace(path, trace)
        doc = json.loads(path.read_text())
        assert len(doc["rotations"]) == 1
        doc["rotations"] = []
        write_doc(path, doc)
        rotations = load_trace(path)[3]
        assert rotations.dtype == RECORD and len(rotations) == 0

    def test_several_chunks_concatenate(self, tmp_path):
        path = tmp_path / "t.json"
        write_doc(path, base64_trace_doc(3, 2, make_records([(0, 0, 0, 1)]),
                                         make_records([]),
                                         make_records([(1, 1, 1, 2)] * 2)))
        fields, _ = fields_and_entries(load_trace(path)[3])
        assert fields == [(0, 0, 0, 1), (1, 1, 1, 2), (1, 1, 1, 2)]

    def rejects(self, path, doc, match, error=ValueError):
        write_doc(path, doc)
        with pytest.raises(error, match=match) as info:
            load_trace(path)
        assert str(info.value).count(str(path)) == 1

    def test_rejects_non_list_rotations(self, tmp_path):
        doc = base64_trace_doc(2, 1, make_records([(0, 0, 0, 1)]))
        doc["rotations"] = doc["rotations"][0]
        self.rejects(tmp_path / "t.json", doc, "'rotations' must be a list")

    def test_rejects_non_string_item(self, tmp_path):
        doc = base64_trace_doc(2, 1, make_records([(0, 0, 0, 1)]))
        doc["rotations"].append({"stage": 0})
        self.rejects(tmp_path / "t.json", doc,
                     r"rotations\[1\] must be a base64 string")

    @pytest.mark.parametrize("char", ["!", "é", " ", "\n"])
    def test_rejects_non_alphabet_character(self, tmp_path, char):
        doc = base64_trace_doc(2, 1, make_records([(0, 0, 0, 1)]))
        doc["rotations"][0] = char + doc["rotations"][0]
        self.rejects(tmp_path / "t.json", doc,
                     r"rotations\[0\] is not valid base64")

    def test_rejects_bad_padding(self, tmp_path):
        doc = base64_trace_doc(2, 1, make_records([(0, 0, 0, 1)]))
        assert doc["rotations"][0].endswith("=")
        doc["rotations"][0] = doc["rotations"][0][:-1]
        self.rejects(tmp_path / "t.json", doc,
                     r"rotations\[0\] is not valid base64")

    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + bytes(1),
                                      lambda b: b[:-4 * 3]])
    def test_rejects_partial_record(self, tmp_path, edit):
        blob = make_records([(0, 0, 0, 1)] * 2).tobytes()
        doc = base64_trace_doc(2, 1)
        doc["rotations"] = [base64.b64encode(edit(blob)).decode("ascii")]
        self.rejects(tmp_path / "t.json", doc, "not a whole number of 80-byte")

    @pytest.mark.parametrize("plane", [
        (0, 2, 0, 1),    # site = l
        (0, 0, 1, 1),    # level_a = level_b
        (0, 0, 2, 1),    # level_a > level_b
        (0, 0, 0, 3),    # level_b = n
        (0, -1, 0, 1),   # negative site
        (0, 0, -1, 1),   # negative level_a
    ])
    def test_rejects_out_of_range_plane(self, tmp_path, plane):
        # The bad record follows a good one: the error names record 1 of
        # the second string.
        good = make_records([(0, 0, 0, 1)])
        doc = base64_trace_doc(3, 2, good, make_records([(0, 1, 1, 2), plane]))
        self.rejects(tmp_path / "t.json", doc,
                     r"out-of-range plane in rotations\[1\], record\[1\]")

    @pytest.mark.parametrize("l", [27, 10**7])
    def test_over_cap_header_judged_before_payload(self, tmp_path, l):
        doc = base64_trace_doc(2, l)
        doc["rotations"] = ["!"]
        self.rejects(tmp_path / "t.json", doc, "exceeds the amplitude cap",
                     CapacityError)

    def test_non_finite_entry_loads_and_fails_verify(self, tmp_path, capsys):
        state = random_state(2, 2, seed=3)
        original, path = tmp_path / "s.json", tmp_path / "t.json"
        save_state(original, state)
        entries = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        write_doc(path, base64_trace_doc(2, 2, make_records([(0, 0, 0, 1)],
                                                             entries)))
        rotations = load_trace(path)[3]
        assert np.isnan(rotations["entries"][0, 0, 0])
        code = main(["verify", "--original", str(original), "--trace",
                     str(path), "--reduced", str(original)])
        assert code == 3
        assert "rotations[0]" in capsys.readouterr().out


class TestReports:
    def test_all_fields_present_and_json_safe(self, tmp_path):
        s = random_state(3, 2, seed=2)
        _, report = reduce(s)
        doc = report_to_dict(report, tool_version="0.0-test",
                             input_digest="sha256:00", seed=2,
                             duration_seconds=0.25)
        assert set(doc) == REPORT_FIELDS
        path = tmp_path / "rep.json"
        save_report(path, doc)
        parsed = json.loads(path.read_text())
        assert parsed == doc

    def test_stage_entries(self):
        s = random_state(3, 2, seed=2)
        _, report = reduce(s)
        doc = report_to_dict(report, tool_version="x", input_digest=None,
                             seed=None, duration_seconds=0.0)
        for stage in doc["stages"]:
            assert stage["iterations"] == len(stage["pivot_history"])
            assert len(stage["anchor_history"]) == stage["iterations"] + 1
            assert stage["converged"] is True

    @pytest.mark.parametrize("strategy", ["greedy", "round-robin", "newton"])
    def test_stage_fields_include_newton_steps(self, strategy):
        _, report = reduce(random_state(4, 3, seed=1), strategy=strategy)
        doc = report_to_dict(report, tool_version="x", input_digest=None,
                             seed=None, duration_seconds=0.0)
        for stage, written in zip(report.stages, doc["stages"]):
            assert set(written) == {"stage", "iterations", "residual",
                                    "anchor_history", "pivot_history",
                                    "converged", "newton_steps"}
            assert written["newton_steps"] == stage.newton_steps
        steps = sum(s["newton_steps"] for s in doc["stages"])
        assert (steps > 0) == (strategy == "newton")


def test_file_digest_changes_with_content(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text("a")
    p2.write_text("b")
    d1, d2 = file_digest(p1), file_digest(p2)
    assert d1.startswith("sha256:") and d2.startswith("sha256:")
    assert d1 != d2
    # A file of several read chunks hashes to the digest of all its bytes.
    data = np.random.default_rng(0).bytes(5 << 19)  # 2.5 MiB
    p3 = tmp_path / "c.json"
    p3.write_bytes(data)
    assert file_digest(p3) == "sha256:" + hashlib.sha256(data).hexdigest()
