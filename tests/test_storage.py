"""Binary stream/schedule/model files and the text manifest."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_schedule, random_simplex, random_stream
from streamfuse.aemonitor import TrainConfig, reconstruction_errors, train_ae
from streamfuse.core import AttentionSchedule, PosteriorStream
from streamfuse.errors import (
    BadMagic,
    InvalidSimplex,
    ManifestError,
    PayloadTruncated,
    VersionUnsupported,
)
from streamfuse.simulator import CorruptionProfile
from streamfuse.storage import (
    UtteranceRecord,
    read_manifest,
    read_model,
    read_schedule,
    read_stream,
    write_manifest,
    write_model,
    write_schedule,
    write_stream,
)


def stream_bytes(probs_f32: np.ndarray, stream_id=0, offset=0, version=1, magic=b"SATN", dtype=0):
    T, C = probs_f32.shape
    hdr = struct.pack("<4sHIIIiB", magic, version, C, T, stream_id & 0xFFFFFFFF, offset, dtype)
    return hdr + np.ascontiguousarray(probs_f32, dtype="<f4").tobytes()


class TestStreamFiles:
    def test_round_trip_values_and_metadata(self, rng, tmp_path):
        s = random_stream(rng, 17, 5, stream_id=3, frame_offset=-2)
        path = tmp_path / "a.strm"
        write_stream(s, path)
        got = read_stream(path)
        assert (got.stream_id, got.frame_offset) == (3, -2)
        np.testing.assert_allclose(got.probs, s.probs, atol=1e-6)

    def test_negative_stream_id_round_trips(self, rng, tmp_path):
        s = random_stream(rng, 4, 3, stream_id=-1)
        write_stream(s, tmp_path / "a.strm")
        assert read_stream(tmp_path / "a.strm").stream_id == -1

    def test_write_read_write_byte_stable(self, rng, tmp_path):
        for k in range(30):
            s = random_stream(rng, int(rng.integers(1, 30)), int(rng.integers(2, 9)))
            p1, p2 = tmp_path / f"{k}_1.strm", tmp_path / f"{k}_2.strm"
            write_stream(s, p1)
            write_stream(read_stream(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_header_truncated(self, tmp_path):
        (tmp_path / "x.strm").write_bytes(b"SATN\x01")
        with pytest.raises(PayloadTruncated):
            read_stream(tmp_path / "x.strm")

    def test_payload_truncated(self, rng, tmp_path):
        s = random_stream(rng, 10, 4)
        path = tmp_path / "x.strm"
        write_stream(s, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(PayloadTruncated):
            read_stream(path)

    def test_huge_declared_payload_rejected_before_reading(self, tmp_path):
        # T = C = 2**32 - 1 declares ~2**66 bytes; the size check must
        # fire before read() sees that count.
        path = tmp_path / "x.strm"
        path.write_bytes(
            struct.pack("<4sHIIIiB", b"SATN", 1, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0, 0)
        )
        with pytest.raises(PayloadTruncated):
            read_stream(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "x.strm"
        write_stream(random_stream(rng, 3, 2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(PayloadTruncated):
            read_stream(path)

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(np.full((2, 2), 0.5, dtype="<f4"), magic=b"XXXX"))
        with pytest.raises(BadMagic):
            read_stream(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(np.full((2, 2), 0.5, dtype="<f4"), version=9))
        with pytest.raises(VersionUnsupported):
            read_stream(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(np.full((2, 2), 0.5, dtype="<f4"), dtype=1))
        with pytest.raises(VersionUnsupported):
            read_stream(path)

    def test_near_one_row_renormalized(self, tmp_path):
        # Row sums to 0.9999995: inside the acceptance band, outside the
        # leave-untouched band, so the reader renormalizes it.
        row = np.array([[0.5, 0.4999995]], dtype="<f4")
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(row))
        got = read_stream(path)
        assert got.probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(got.probs[0], [0.5, 0.5], atol=1e-6)

    def test_far_off_row_rejected(self, tmp_path):
        row = np.array([[0.5, 0.49]], dtype="<f4")
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(row))
        with pytest.raises(InvalidSimplex) as exc:
            read_stream(path)
        assert "row 0" in str(exc.value)

    def test_negative_entry_rejected(self, tmp_path):
        row = np.array([[1.2, -0.2]], dtype="<f4")
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(row))
        with pytest.raises(InvalidSimplex):
            read_stream(path)

    def test_nan_rejected(self, tmp_path):
        row = np.array([[np.nan, 1.0]], dtype="<f4")
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(row))
        with pytest.raises(InvalidSimplex):
            read_stream(path)


class TestScheduleFiles:
    def test_round_trip(self, rng, tmp_path):
        sched = random_schedule(rng, 12, 4)
        path = tmp_path / "a.schd"
        write_schedule(sched, path)
        got = read_schedule(path)
        assert (got.num_frames, got.num_streams) == (12, 4)
        np.testing.assert_allclose(got.weights, sched.weights, atol=1e-6)

    def test_byte_stable(self, rng, tmp_path):
        sched = random_schedule(rng, 9, 3)
        p1, p2 = tmp_path / "1.schd", tmp_path / "2.schd"
        write_schedule(sched, p1)
        write_schedule(read_schedule(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_and_magic(self, rng, tmp_path):
        path = tmp_path / "a.schd"
        write_schedule(random_schedule(rng, 5, 2), path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(PayloadTruncated):
            read_schedule(path)
        path.write_bytes(b"SATN" + data[4:])
        with pytest.raises(BadMagic):
            read_schedule(path)


    def test_huge_declared_payload_rejected_before_reading(self, tmp_path):
        path = tmp_path / "a.schd"
        path.write_bytes(struct.pack("<4sHIIB", b"SATW", 1, 0xFFFFFFFF, 0xFFFFFFFF, 0))
        with pytest.raises(PayloadTruncated):
            read_schedule(path)


class TestModelFiles:
    def make_model(self, rng, context=(0, 0), hidden=(4, 3, 4)):
        data = [
            PosteriorStream(random_simplex(rng, 30, 5), stream_id=-1) for _ in range(2)
        ]
        kwargs = {} if hidden is None else {"hidden_widths": hidden}
        model, _ = train_ae(
            data, TrainConfig(epochs=2, learning_rate=1e-3, seed=1), context=context, **kwargs
        )
        return model, data[0]

    def test_round_trip_exact(self, rng, tmp_path):
        model, probe = self.make_model(rng)
        path = tmp_path / "m.stae"
        write_model(model, path)
        got = read_model(path)
        assert got.context == model.context
        assert got.front_end.logit_clamp == model.front_end.logit_clamp
        np.testing.assert_array_equal(got.front_end.pca_mean, model.front_end.pca_mean)
        np.testing.assert_array_equal(got.front_end.pca_basis, model.front_end.pca_basis)
        assert len(got.layers) == len(model.layers)
        for a, b in zip(got.layers, model.layers):
            assert (a.activation, a.offsets) == (b.activation, tuple(b.offsets))
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        # Bit-identical weights mean bit-identical reconstruction errors.
        np.testing.assert_array_equal(
            reconstruction_errors(got, probe), reconstruction_errors(model, probe)
        )

    def test_round_trip_with_context(self, rng, tmp_path):
        model, _ = self.make_model(rng, context=(-8, 5), hidden=None)
        path = tmp_path / "m.stae"
        write_model(model, path)
        got = read_model(path)
        assert got.context == (-8, 5)
        assert got.splice_plan == model.splice_plan

    def test_byte_stable(self, rng, tmp_path):
        model, _ = self.make_model(rng)
        p1, p2 = tmp_path / "1.stae", tmp_path / "2.stae"
        write_model(model, p1)
        write_model(read_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_names_section(self, rng, tmp_path):
        model, _ = self.make_model(rng)
        path = tmp_path / "m.stae"
        write_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:30])
        with pytest.raises(PayloadTruncated):
            read_model(path)
        path.write_bytes(data + b"!")
        with pytest.raises(PayloadTruncated):
            read_model(path)
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(BadMagic):
            read_model(path)

    def test_huge_declared_layer_rejected_before_reading(self, tmp_path):
        # A valid C=2, K=1 front end, then one layer declaring a
        # (2**32 - 1) x (2**32 - 1) weight matrix.
        path = tmp_path / "m.stae"
        path.write_bytes(
            struct.pack("<4sHIId", b"STAE", 1, 2, 1, 1e-3)
            + struct.pack("<ii", 0, 0)
            + np.zeros(2 + 2, dtype="<f8").tobytes()
            + struct.pack("<H", 1)
            + struct.pack("<IIBH", 0xFFFFFFFF, 0xFFFFFFFF, 0, 0)
        )
        with pytest.raises(PayloadTruncated) as exc:
            read_model(path)
        assert "layer 0 weights" in str(exc.value)


class TestManifest:
    def records(self):
        return [
            UtteranceRecord(
                utt_id=0,
                num_frames=90,
                oracle_stream=1,
                profiles=[
                    CorruptionProfile(uniform_mix=0.25, smear_width=3, offset=-1),
                    CorruptionProfile(fail=True),
                ],
            ),
            UtteranceRecord(
                utt_id=1,
                num_frames=120,
                oracle_stream=0,
                profiles=[CorruptionProfile(), CorruptionProfile(uniform_mix=0.6)],
            ),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(self.records(), path)
        got = read_manifest(path)
        assert got == self.records()

    def test_float_mix_round_trips_exactly(self, tmp_path):
        recs = [
            UtteranceRecord(
                utt_id=0,
                num_frames=5,
                oracle_stream=0,
                profiles=[CorruptionProfile(uniform_mix=0.1), CorruptionProfile()],
            )
        ]
        path = tmp_path / "manifest.txt"
        write_manifest(recs, path)
        assert read_manifest(path)[0].profiles[0].uniform_mix == 0.1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(self.records(), path)
        path.write_text("# header\n\n" + path.read_text())
        assert len(read_manifest(path)) == 2

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(self.records(), path)
        path.write_text(path.read_text() + "garbage\n")
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        assert "line 3" in str(exc.value)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("utt=0 frames=5 oracle=0 bogus=1 profiles=lam:0.0,smear:0,fail:0,off:0\n")
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        assert "bogus" in str(exc.value) and "line 1" in str(exc.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("utt=0 frames=5 profiles=lam:0.0,smear:0,fail:0,off:0\n")
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        assert "oracle" in str(exc.value)

    def test_unknown_profile_field_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("utt=0 frames=5 oracle=0 profiles=lam:0.0,smear:0,fail:0,off:0,extra:1\n")
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        assert "extra" in str(exc.value)

    def test_bad_profile_token_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("utt=0 frames=5 oracle=0 profiles=nonsense\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("utt=zero frames=5 oracle=0 profiles=lam:0.0,smear:0,fail:0,off:0\n")
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        assert "line 1" in str(exc.value)
