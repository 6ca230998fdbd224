"""Checkpoint container round-trips and corruption handling."""

import struct

import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce import checkpoint as ckpt
from tacforce.errors import FormatError


@pytest.fixture
def arrays(tmp_path):
    rng = np.random.default_rng(99)
    return {
        "w1": rng.normal(size=(4, 3)),
        "b1": rng.normal(size=(3,)),
        "scalar": np.array(2.5),
        "cube": rng.normal(size=(2, 2, 2)),
    }


class TestRoundTrip:
    def test_values_and_order_preserved(self, tmp_path, arrays):
        path = tmp_path / "m.fafw"
        ckpt.save_arrays(path, arrays)
        back = ckpt.load_arrays(path)
        assert list(back) == list(arrays)
        for k in arrays:
            np.testing.assert_array_equal(back[k], arrays[k])
            assert back[k].dtype == np.float64

    def test_bitwise_stable(self, tmp_path, arrays):
        p1 = tmp_path / "a.fafw"
        p2 = tmp_path / "b.fafw"
        ckpt.save_arrays(p1, arrays)
        ckpt.save_arrays(p2, ckpt.load_arrays(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.fafw"
        ckpt.save_arrays(path, {})
        assert ckpt.load_arrays(path) == {}
        assert path.read_bytes() == b"FAFW" + struct.pack("<H", 1)

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "u.fafw"
        ckpt.save_arrays(path, {"层.权重": np.ones(2)})
        back = ckpt.load_arrays(path)
        assert "层.权重" in back

    def test_model_helpers(self, tmp_path):
        path = tmp_path / "model.fafw"
        params = {"enc.w": ad.parameter(np.arange(6.0).reshape(2, 3)), "enc.b": ad.parameter(np.zeros(3))}
        ckpt.save_model(path, params, extra={"adam.t": np.array([3.0])})

        fresh = {"enc.w": ad.parameter(np.zeros((2, 3))), "enc.b": ad.parameter(np.ones(3))}
        leftover = ckpt.load_model(path, fresh)
        np.testing.assert_array_equal(fresh["enc.w"].data, params["enc.w"].data)
        np.testing.assert_array_equal(fresh["enc.b"].data, params["enc.b"].data)
        assert list(leftover) == ["adam.t"]

    def test_load_model_shape_mismatch(self, tmp_path):
        path = tmp_path / "model.fafw"
        ckpt.save_model(path, {"w": ad.parameter(np.zeros((2, 3)))})
        with pytest.raises(FormatError, match="shape mismatch"):
            ckpt.load_model(path, {"w": ad.parameter(np.zeros((3, 2)))})

    def test_load_model_missing_param(self, tmp_path):
        path = tmp_path / "model.fafw"
        ckpt.save_model(path, {"w": ad.parameter(np.zeros(2))})
        with pytest.raises(FormatError, match="missing"):
            ckpt.load_model(path, {"w": ad.parameter(np.zeros(2)), "v": ad.parameter(np.zeros(2))})


class TestCorruption:
    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.fafw"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(FormatError) as exc:
            ckpt.load_arrays(path)
        assert exc.value.offset == 0

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v9.fafw"
        path.write_bytes(b"FAFW" + struct.pack("<H", 9))
        with pytest.raises(FormatError) as exc:
            ckpt.load_arrays(path)
        assert exc.value.offset == 4

    def test_truncated_data_reports_offset(self, tmp_path, arrays):
        path = tmp_path / "t.fafw"
        ckpt.save_arrays(path, {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        cut = path.with_suffix(".cut")
        cut.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(FormatError) as exc:
            ckpt.load_arrays(cut)
        assert exc.value.offset is not None
        assert "truncated" in str(exc.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.fafw"
        path.write_bytes(b"FAFW" + struct.pack("<H", 1) + b"\x05")
        with pytest.raises(FormatError, match="truncated"):
            ckpt.load_arrays(path)

    def test_truncated_dims(self, tmp_path):
        path = tmp_path / "d.fafw"
        body = struct.pack("<H", 1) + b"w" + struct.pack("<B", 2) + struct.pack("<I", 3)
        path.write_bytes(b"FAFW" + struct.pack("<H", 1) + body)
        with pytest.raises(FormatError, match="truncated dims"):
            ckpt.load_arrays(path)

    def test_rank_above_numpy_limit_reports_its_offset(self, tmp_path):
        path = tmp_path / "r.fafw"
        body = struct.pack("<H", 1) + b"w" + struct.pack("<B", 182) + b"\x00" * 64
        path.write_bytes(b"FAFW" + struct.pack("<H", 1) + body)
        with pytest.raises(FormatError, match="rank 182") as exc:
            ckpt.load_arrays(path)
        assert exc.value.offset == 9

    def test_duplicate_record_names_rejected(self, tmp_path):
        path = tmp_path / "dup.fafw"
        ckpt.save_arrays(path, {"w": np.ones(2)})
        blob = path.read_bytes()
        path.write_bytes(blob + blob[6:])
        with pytest.raises(FormatError, match="duplicate") as exc:
            ckpt.load_arrays(path)
        assert exc.value.offset == len(blob) + 2

    def test_empty_array_with_oversized_dims(self, tmp_path):
        path = tmp_path / "big.fafw"
        dims = (0, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
        body = struct.pack("<H", 1) + b"w" + struct.pack("<B", 4) + struct.pack("<4I", *dims)
        path.write_bytes(b"FAFW" + struct.pack("<H", 1) + body)
        with pytest.raises(FormatError, match="too big") as exc:
            ckpt.load_arrays(path)
        assert exc.value.offset == 10


class TestContainerFuzz:
    """Seeded corruption of a saved checkpoint. `load_arrays` and
    `load_model` either raise FormatError or return arrays that save
    back to exactly the bytes they read; nothing else."""

    PARAMS = {"enc.w": (3, 2), "enc.b": (2,), "head.w": (2, 1, 2)}

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rng = np.random.default_rng(21)
        params = {k: ad.parameter(rng.normal(size=shape)) for k, shape in self.PARAMS.items()}
        extra = {"adam.t": np.array(4.0), "adam.empty": np.zeros((0, 3))}
        path = tmp_path_factory.mktemp("fuzz") / "m.fafw"
        ckpt.save_model(path, params, extra=extra)
        ends = [6]  # where each record ends, after the 6-byte header
        fields = set(range(6))
        for name, arr in [*((k, p.data) for k, p in params.items()), *extra.items()]:
            start = ends[-1]
            for size in (2, len(name.encode()), 1, 4 * arr.ndim, 8 * arr.size):
                fields.add(start)
                start += size
            ends.append(start)
        return path.read_bytes(), sorted(fields), ends

    def load_or_format_error(self, tmp_path, blob):
        path = tmp_path / "fuzzed.fafw"
        path.write_bytes(blob)
        try:
            arrays = ckpt.load_arrays(path)
        except FormatError:
            arrays = None
        else:
            ckpt.save_arrays(tmp_path / "again.fafw", arrays)
            assert (tmp_path / "again.fafw").read_bytes() == blob
        params = {k: ad.parameter(np.zeros(shape)) for k, shape in self.PARAMS.items()}
        try:
            leftover = ckpt.load_model(path, params)
        except FormatError:
            return arrays
        ckpt.save_model(tmp_path / "model.fafw", params, extra=leftover)
        assert (tmp_path / "model.fafw").read_bytes() == blob
        return arrays

    def test_truncation_at_every_header_and_record_boundary(self, tmp_path, saved):
        blob, fields, ends = saved
        assert ends[-1] == len(blob)
        for cut in sorted({*fields, *ends, *(f + 1 for f in fields[:-1])}):
            got = self.load_or_format_error(tmp_path, blob[:cut])
            # a cut between records leaves a shorter, valid checkpoint
            assert (got is not None) == (cut in ends), cut

    def test_seeded_byte_flips(self, tmp_path, saved):
        blob, _, _ = saved
        rng = np.random.default_rng(22)
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(400):
            fuzzed = bytearray(blob)
            at = int(rng.integers(len(blob)))
            fuzzed[at] ^= int(rng.integers(1, 256))
            got = self.load_or_format_error(tmp_path, bytes(fuzzed))
            outcomes["rejected" if got is None else "loaded"] += 1
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0, outcomes

    def test_trailing_bytes(self, tmp_path, saved):
        blob, _, ends = saved
        rng = np.random.default_rng(23)
        last = blob[ends[-2]:]
        for extra in (b"\x00", bytes(rng.integers(0, 256, 7, dtype=np.uint8)), last):
            assert self.load_or_format_error(tmp_path, blob + extra) is None
