import json

import numpy as np
import pytest

from fpl.core import COMPLEX, REAL, make_frame
from fpl.errors import DomainError, FrameFileError, NotAFrame
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
