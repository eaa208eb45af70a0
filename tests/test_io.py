import gc
import json

import numpy as np
import pytest

from fpl import io
from fpl.core import COMPLEX, REAL, make_frame
from fpl.errors import DomainError, FrameFileError, NotAFrame
from fpl.fusion import make_fusion_frame
from fpl.io import (
    BasisAdjustedWarning,
    frame_from_payload,
    frame_to_payload,
    fusion_from_payload,
    fusion_to_payload,
    load_frame,
    load_fusion_frame,
    save_frame,
    save_fusion_frame,
)


class TestFrameRoundtrip:
    def test_real_roundtrip_is_exact(self, tmp_path, trident):
        path = tmp_path / "frame.json"
        save_frame(trident, path)
        loaded = load_frame(path)
        np.testing.assert_array_equal(loaded.synthesis, trident.synthesis)
        assert loaded.field == REAL

    def test_complex_roundtrip_is_exact(self, tmp_path):
        m = np.array([[1 + 2j, 0.25, 1j], [0.0, 1.0, -0.5j]])
        f = make_frame(m)
        path = tmp_path / "frame.json"
        save_frame(f, path)
        loaded = load_frame(path)
        np.testing.assert_array_equal(loaded.synthesis, m)
        assert loaded.field == COMPLEX

    def test_vectors_are_stored_column_major(self, trident):
        payload = frame_to_payload(trident)
        assert payload["vectors"] == [[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
        assert payload["n"] == 2 and payload["k"] == 3

    def test_complex_entries_written_as_pairs(self):
        f = make_frame(np.array([[1j, 1.0], [0.0, 2.0]]))
        payload = frame_to_payload(f)
        assert payload["vectors"][0] == [[0.0, 1.0], [0.0, 0.0]]

    def test_plain_numbers_accepted_for_complex_frames(self):
        payload = {"field": "complex", "n": 2, "k": 2,
                   "vectors": [[1, 0], [[0, 1], 1]]}
        f = frame_from_payload(payload)
        assert f.synthesis[0, 1] == 1j
        assert f.synthesis[0, 0] == 1.0 + 0j

    def test_bundled_data_loads(self, trident, mercedes, basis_plus_diag):
        assert trident.k == 3
        assert mercedes.k == 3
        assert basis_plus_diag.k == 3


class TestFramePayloadErrors:
    def payload(self, **overrides):
        base = {"field": "real", "n": 2, "k": 2,
                "vectors": [[1.0, 0.0], [0.0, 1.0]]}
        base.update(overrides)
        return base

    def test_rejects_pairs_in_real_frames(self):
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(vectors=[[[1, 0], 0.0],
                                                     [0.0, 1.0]]))

    def test_rejects_missing_field(self):
        with pytest.raises(FrameFileError):
            frame_from_payload({"n": 2, "k": 2,
                                "vectors": [[1.0, 0.0], [0.0, 1.0]]})

    def test_rejects_unknown_field(self):
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(field="rational"))

    def test_rejects_missing_n(self):
        p = self.payload()
        del p["n"]
        with pytest.raises(FrameFileError):
            frame_from_payload(p)

    def test_rejects_vector_count_mismatch(self):
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(k=3))

    @pytest.mark.parametrize("key", ["n", "k"])
    @pytest.mark.parametrize("value", [1e400, True, 2.9, 2.0, "2", None])
    def test_rejects_header_counts_that_are_not_json_integers(self, key,
                                                              value):
        with pytest.raises(FrameFileError,
                           match='frame file needs integer "n" and "k"'):
            frame_from_payload(self.payload(**{key: value}))

    def test_rejects_ragged_columns(self):
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(vectors=[[1.0, 0.0], [0.0]]))

    def test_rejects_string_entries(self):
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(vectors=[["1", 0.0], [0.0, 1.0]]))

    def test_rejects_boolean_entries(self):
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(vectors=[[True, 0.0], [0.0, 1.0]]))
        with pytest.raises(FrameFileError):
            frame_from_payload(self.payload(field="complex",
                                            vectors=[[[1.0, False], 0.0],
                                                     [0.0, 1.0]]))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_json_constants(self, tmp_path, constant):
        path = tmp_path / "frame.json"
        path.write_text('{"field": "real", "n": 2, "k": 2, "vectors": '
                        f'[[{constant}, 0.0], [0.0, 1.0]]}}')
        with pytest.raises(FrameFileError, match=constant):
            load_frame(path)

    def test_rejects_numbers_that_overflow(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text('{"field": "real", "n": 2, "k": 2, "vectors": '
                        '[[1e999, 0.0], [0.0, 1.0]]}')
        with pytest.raises(DomainError):
            load_frame(path)

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FrameFileError):
            load_frame(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text("{not json")
        with pytest.raises(FrameFileError):
            load_frame(path)

    def test_missing_file_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_frame(tmp_path / "absent.json")

    def test_rank_deficient_file_is_not_a_frame(self):
        payload = self.payload(vectors=[[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NotAFrame):
            frame_from_payload(payload)


BIG = 10 ** 400  # an integer literal no float can hold


class TestLargeIntegers:
    @pytest.mark.parametrize("field,entry", [
        ("real", BIG), ("real", -BIG), ("complex", BIG),
        ("complex", [0, BIG]), ("complex", [BIG, 1.0])])
    def test_integers_beyond_float_range_are_file_errors(self, field, entry):
        payload = {"field": field, "n": 2, "k": 2,
                   "vectors": [[1.0, 0.0], [entry, 1.0]]}
        with pytest.raises(FrameFileError, match="column 1: number too large"):
            frame_from_payload(payload)

    def test_literal_beyond_the_digit_limit_is_a_file_error(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text('{"field": "real", "n": 2, "k": 2, "vectors": '
                        f'[[1{"0" * 5000}, 0.0], [0.0, 1.0]]}}')
        with pytest.raises(FrameFileError):
            load_frame(path)

    def test_integers_above_2_53_round_like_float(self):
        big = 2 ** 53 + 1
        f = frame_from_payload({"field": "real", "n": 2, "k": 2,
                                "vectors": [[big, 0], [0, -big]]})
        assert f.synthesis[0, 0] == float(big)
        assert f.synthesis[1, 1] == -float(big)


def _slow_columns(monkeypatch):
    monkeypatch.setattr(io, "_fast_columns", lambda *args: None)


def _parse_both_ways(monkeypatch, columns, n, field):
    """(fast, slow) outcomes of _parse_columns: the array, or the error."""
    outcomes = []
    for slow in (False, True):
        if slow:
            _slow_columns(monkeypatch)
        try:
            outcomes.append(io._parse_columns(columns, n, field, "vectors"))
        except FrameFileError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestParseFastPath:
    @pytest.mark.parametrize("field,columns,one_call", [
        ("real", [[1.0, -0.0], [2, 0.5]], True),
        ("real", [[2 ** 53 + 1, 3], [-(2 ** 60) - 1, 1e-300]], True),
        ("real", [[], []], True),
        ("complex", [[[1.0, -0.0], [-0.0, 2]], [[0, 1], [3, -4.5]]], False),
        ("complex", [[[1.0, 2.0], 0.5], [1, [0, 1]]], False),
        ("complex", [[1, -0.0], [2.5, 3]], False),
    ])
    def test_same_array_as_the_entry_parser(self, monkeypatch, field, columns,
                                            one_call):
        n = len(columns[0])
        assert (io._fast_columns(columns, n, field) is not None) == one_call
        fast, slow = _parse_both_ways(monkeypatch, columns, n, field)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()  # -0.0 keeps its sign

    @pytest.mark.parametrize("field,columns", [
        ("real", [[True, 0.0], [0.0, 1.0]]),
        ("real", [[1.0, "2"], [0.0, 1.0]]),
        ("real", [[1.0, 0.0], [0.0]]),
        ("real", [[1.0, 0.0], 7]),
        ("real", [[1.0, [0.0, 1.0]], [0.0, 1.0]]),
        ("real", [[1.0, 0.0], [None, 1.0]]),
        ("real", [[1.0, 0.0], [BIG, 1.0]]),
        ("complex", [[[1.0, False], 0.0], [0.0, 1.0]]),
        ("complex", [[[1.0, 2.0, 3.0], 0.0], [0.0, 1.0]]),
        ("complex", [[[1.0, "2"], [0, 1]], [[0, 1], [1, 0]]]),
        ("complex", [[[1.0, BIG], [0, 1]], [[0, 1], [1, 0]]]),
    ])
    def test_same_error_as_the_entry_parser(self, monkeypatch, field,
                                            columns):
        fast, slow = _parse_both_ways(monkeypatch, columns, 2, field)
        assert isinstance(fast, str)
        assert fast == slow

    def test_fusion_bases_take_the_fast_path(self, monkeypatch):
        rng = np.random.default_rng(4)
        payload = fusion_to_payload(make_fusion_frame(
            [rng.standard_normal((4, 2)) for _ in range(3)]))
        fast = fusion_from_payload(payload)
        _slow_columns(monkeypatch)
        slow = fusion_from_payload(payload)
        assert fast.operator.tobytes() == slow.operator.tobytes()


def _columns_one_by_one(m):
    """The column encoding written out entry by entry."""
    if np.iscomplexobj(m):
        return [[[float(e.real), float(e.imag)] for e in col] for col in m.T]
    return [[float(e) for e in col] for col in m.T]


class TestColumnEncoding:
    def test_frame_payload_matches_entrywise_encoding(self):
        rng = np.random.default_rng(8)
        for m in (rng.standard_normal((3, 5)),
                  np.array([[-0.0, 1.0, 2.0], [0.5, -0.0, 1e-300]]),
                  rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
                  np.array([[1j, complex(-0.0, 2.0)],
                            [complex(-1.0, -0.0), 2.0]])):
            payload = frame_to_payload(make_frame(m))
            assert json.dumps(payload["vectors"]) == json.dumps(
                _columns_one_by_one(m))

    def test_fusion_payload_matches_entrywise_encoding(self):
        rng = np.random.default_rng(9)
        for field in ("real", "complex"):
            bases = [rng.standard_normal((4, d)) for d in (1, 2, 3)]
            if field == "complex":
                bases = [b + 1j * rng.standard_normal(b.shape) for b in bases]
            ff = make_fusion_frame(bases)
            payload = fusion_to_payload(ff)
            assert payload["field"] == field
            assert json.dumps(payload["subspaces"]) == json.dumps(
                [{"basis": _columns_one_by_one(w.basis)}
                 for w in ff.subspaces])



def _collections_while_decoded(monkeypatch, load, convert, path):
    """Generations of the collections that start between decoding the file
    and the end of its conversion, while the decoded tree is alive."""
    seen, alive = [], [False]
    decode, conversion = io._load_json, getattr(io, convert)

    def decoding(p):
        alive[0] = True
        return decode(p)

    def converting(*args, **kwargs):
        try:
            return conversion(*args, **kwargs)
        finally:
            alive[0] = False

    def note(phase, info):
        if phase == "start" and alive[0]:
            seen.append(info["generation"])

    monkeypatch.setattr(io, "_load_json", decoding)
    monkeypatch.setattr(io, convert, converting)
    gc.callbacks.append(note)
    try:
        load(path)
    finally:
        gc.callbacks.remove(note)
    return seen


class TestCollectorPause:
    """A decoded file has thousands of lists and no cycles; loading one
    must not run the cyclic collector."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_frame_load_runs_no_collection(self, monkeypatch, tmp_path,
                                           field):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((2, 3000))
        if field == COMPLEX:
            m = m + 1j * rng.standard_normal((2, 3000))
        path = tmp_path / "wide.json"
        save_frame(make_frame(m), path)
        assert _collections_while_decoded(
            monkeypatch, load_frame, "frame_from_payload", path) == []
        assert gc.isenabled()

    def test_fusion_load_runs_no_collection(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(6)
        ff = make_fusion_frame([np.linalg.qr(rng.standard_normal((4, 2)))[0]
                                for _ in range(1000)])
        path = tmp_path / "many.json"
        save_fusion_frame(ff, path)
        assert _collections_while_decoded(
            monkeypatch, load_fusion_frame, "fusion_from_payload", path) == []
        assert gc.isenabled()

    def test_collector_state_is_restored(self, tmp_path, trident):
        path = tmp_path / "frame.json"
        save_frame(trident, path)
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(FrameFileError):
            load_frame(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            load_frame(path)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFusionRoundtrip:
    def test_roundtrip_preserves_subspaces(self, tmp_path, fusion_xy_tilted):
        path = tmp_path / "fusion.json"
        save_fusion_frame(fusion_xy_tilted, path)
        loaded = load_fusion_frame(path)
        assert loaded.dims == fusion_xy_tilted.dims
        for a, b in zip(loaded.subspaces, fusion_xy_tilted.subspaces):
            np.testing.assert_allclose(a.projection(), b.projection(),
                                       atol=1e-12)

    def test_orthonormal_input_loads_without_warning(self, fusion_xy_z):
        import warnings

        payload = fusion_to_payload(fusion_xy_z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ff = fusion_from_payload(payload)
        assert ff.dims == (2, 1)

    def test_skewed_basis_is_adjusted_with_a_warning(self):
        payload = {"field": "real", "n": 2,
                   "subspaces": [{"basis": [[1.0, 0.0], [1.0, 1.0]]},
                                 {"basis": [[0.0, 1.0]]}]}
        with pytest.warns(BasisAdjustedWarning):
            ff = fusion_from_payload(payload)
        # the span survives even though the basis was fixed up
        np.testing.assert_allclose(ff.subspaces[0].projection(), np.eye(2),
                                   atol=1e-12)

    def test_rejects_missing_subspaces(self):
        with pytest.raises(FrameFileError):
            fusion_from_payload({"field": "real", "n": 2, "subspaces": []})

    @pytest.mark.parametrize("value", [1e400, True, 2.9, 2.0, "2", None])
    def test_rejects_a_dimension_that_is_not_a_json_integer(self, value):
        with pytest.raises(FrameFileError,
                           match='fusion file needs an integer "n"'):
            fusion_from_payload({"field": "real", "n": value,
                                 "subspaces": [{"basis": [[1.0, 0.0]]}]})

    def test_rejects_subspace_without_basis(self):
        with pytest.raises(FrameFileError):
            fusion_from_payload({"field": "real", "n": 2,
                                 "subspaces": [{"vectors": [[1.0, 0.0]]}]})

    def test_source_name_appears_in_warning(self, tmp_path):
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(
            {"field": "real", "n": 2,
             "subspaces": [{"basis": [[2.0, 0.0]]},
                           {"basis": [[0.0, 1.0]]}]}))
        with pytest.warns(BasisAdjustedWarning, match="skew.json"):
            load_fusion_frame(path)
