"""Binary stream/schedule/model files and the text manifest."""

from __future__ import annotations

import hashlib
import re
import shutil
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_SIMPLEX, CLAMP_AT, random_schedule, random_simplex, random_stream
from streamfuse.aemonitor import (
    LOGIT_CLAMP,
    AeModel,
    FrontEnd,
    Layer,
    TrainConfig,
    _stacked_errors,
    build_architecture,
    fit_front_end,
    train_ae,
)
from streamfuse.core import AttentionSchedule, PosteriorStream, renormalize_rows
from streamfuse.errors import (
    BadMagic,
    FormatError,
    InvalidSimplex,
    PayloadTruncated,
    StreamFuseError,
    VersionUnsupported,
)
from streamfuse.experiments import load_corpus, manifest_text, write_corpus
from streamfuse.simulator import CorpusSpec, CorruptionProfile
from streamfuse.storage import (
    MODEL_VERSION,
    model_digest,
    read_model,
    read_schedule,
    read_stream,
    read_stream_header,
    write_model,
    write_schedule,
    write_stream,
)


def stream_bytes(probs_f32: np.ndarray, stream_id=0, offset=0, version=1, magic=b"SATN", dtype=0):
    T, C = probs_f32.shape
    hdr = struct.pack("<4sHIIiiB", magic, version, C, T, stream_id, offset, dtype)
    return hdr + np.ascontiguousarray(probs_f32, dtype="<f4").tobytes()


def schedule_bytes(weights_f32: np.ndarray) -> bytes:
    T, M = weights_f32.shape
    hdr = struct.pack("<4sHIIB", b"SATW", 1, M, T, 0)
    return hdr + np.ascontiguousarray(weights_f32, dtype="<f4").tobytes()


# (reader, writer, file bytes of a matrix, the matrix as the writer's argument)
_MATRIX_FILES = pytest.mark.parametrize("reader, writer, to_bytes, wrap", [
    (read_stream, write_stream, stream_bytes, PosteriorStream),
    (read_schedule, write_schedule, schedule_bytes, AttentionSchedule),
], ids=["stream", "schedule"])


@BAD_SIMPLEX
@_MATRIX_FILES
def test_bad_rows_rejected_on_read(tmp_path, bad, reader, writer, to_bytes, wrap):
    path = tmp_path / "x.bin"
    path.write_bytes(to_bytes(bad.astype("<f4")))
    with pytest.raises(InvalidSimplex):
        reader(path)


@BAD_SIMPLEX
@_MATRIX_FILES
def test_bad_rows_rejected_before_writing(tmp_path, bad, reader, writer, to_bytes, wrap):
    path = tmp_path / "x.bin"
    with pytest.raises(InvalidSimplex):
        writer(wrap(bad), path)
    assert not path.exists()


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

    # stream_id is an i32: for each id it holds, the bytes a u32 field held
    # (id mod 2**32), so files of either layout read the same.
    @pytest.mark.parametrize("stream_id", [-1, 0, 5, 2**31 - 1])
    def test_stream_id_round_trips_as_the_bytes_of_a_u32(self, rng, tmp_path, stream_id):
        path = tmp_path / "a.strm"
        write_stream(random_stream(rng, 4, 3, stream_id=stream_id), path)
        at = struct.calcsize("<4sHII")
        assert path.read_bytes()[at:at + 4] == struct.pack("<I", stream_id % 2**32)
        assert read_stream(path).stream_id == stream_id
        assert read_stream_header(path).stream_id == stream_id

    @pytest.mark.parametrize("stream_id", [2**31, 2**32, -2**31 - 1])
    def test_stream_id_outside_i32_refused_before_any_file(self, rng, tmp_path, stream_id):
        path = tmp_path / "a.strm"
        with pytest.raises(struct.error):
            write_stream(random_stream(rng, 4, 3, stream_id=stream_id), path)
        assert not path.exists()

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
            struct.pack("<4sHIIiiB", b"SATN", 1, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0, 0)
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

    def test_near_one_row_kept_as_read(self, tmp_path):
        # A row from another writer that sums to 0.9999995, inside
        # SIMPLEX_ATOL: it is accepted, returned as stored and written back
        # as the same bytes.
        row = np.array([[0.5, 0.4999995]], dtype="<f4")
        path, again = tmp_path / "x.strm", tmp_path / "y.strm"
        path.write_bytes(stream_bytes(row))
        got = read_stream(path)
        np.testing.assert_array_equal(got.probs, row.astype(np.float64))
        write_stream(got, again)
        assert again.read_bytes() == path.read_bytes()

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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), C=st.integers(2, 512),
       alpha=st.floats(1e-3, 100))
def test_float64_simplex_rows_are_stored_as_their_f32_cast(tmp_path_factory, seed, rows, C,
                                                           alpha):
    # Casting a row normalized in float64 to f32 moves its sum by under
    # 2**-24, so write_stream stores the plain cast and the stored row still
    # sums to 1 far inside SIMPLEX_ATOL: no row needs renormalizing on
    # write or on read.
    rng = np.random.default_rng(seed)
    probs = renormalize_rows(rng.dirichlet(np.full(C, alpha), size=rows))
    path = tmp_path_factory.getbasetemp() / "cast.strm"
    write_stream(PosteriorStream(probs), path)
    payload = path.read_bytes()[struct.calcsize("<4sHIIiiB"):]
    assert payload == probs.astype("<f4").tobytes()
    stored = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(rows, C)
    assert np.all(np.abs(stored.sum(axis=1) - 1.0) <= 2**-24 + C * 2**-53)


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
        fe = fit_front_end(np.vstack([s.probs for s in data]))
        model, _ = train_ae(
            data, TrainConfig(epochs=2, learning_rate=1e-3, seed=1), fe, context=context, **kwargs
        )
        return model, data[0]

    def test_round_trip_exact(self, rng, tmp_path):
        model, probe = self.make_model(rng)
        path = tmp_path / "m.stae"
        write_model(model, path)
        got = read_model(path)
        assert got.context == model.context
        assert struct.unpack_from("<d", path.read_bytes(), CLAMP_AT) == (LOGIT_CLAMP,)
        np.testing.assert_array_equal(got.front_end.pca_mean, model.front_end.pca_mean)
        np.testing.assert_array_equal(got.front_end.pca_basis, model.front_end.pca_basis)
        assert len(got.layers) == len(model.layers)
        for a, b in zip(got.layers, model.layers):
            assert (a.activation, a.offsets) == (b.activation, tuple(b.offsets))
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        # Bit-identical weights mean bit-identical reconstruction errors.
        np.testing.assert_array_equal(
            _stacked_errors(got, [probe])[0], _stacked_errors(model, [probe])[0]
        )

    def test_round_trip_with_context(self, rng, tmp_path):
        model, _ = self.make_model(rng, context=(-8, 5), hidden=None)
        path = tmp_path / "m.stae"
        write_model(model, path)
        got = read_model(path)
        assert got.context == (-8, 5)
        assert [ly.offsets for ly in got.layers] == [ly.offsets for ly in model.layers]

    def test_byte_stable(self, rng, tmp_path):
        model, _ = self.make_model(rng)
        p1, p2 = tmp_path / "1.stae", tmp_path / "2.stae"
        write_model(model, p1)
        write_model(read_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layers_go_to_and_from_f4_without_a_copy(self, tmp_path):
        # Published widths at (-16, 12), K = 40: layer 1 holds 1536 x 512
        # float32 weights, and neither writing nor reading makes a copy of
        # any layer, or a <f8 one of its size.
        K = 40
        fe = FrontEnd(pca_mean=np.zeros(K), pca_basis=np.eye(K))
        model = AeModel(fe, build_architecture(K, (-16, 12)), (-16, 12))
        layer = model.layers[1].weight
        assert layer.dtype == np.float32 and layer.size * 8 > 6e6
        params = sum(ly.weight.nbytes + ly.bias.nbytes for ly in model.layers)
        path = tmp_path / "m.stae"
        peaks = []
        for step in (lambda: write_model(model, path), lambda: read_model(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        written, read = peaks
        assert written < layer.size * 8 / 8
        # The float32 layers read, and little more.
        assert read < params + layer.size * 8 / 4
        assert layer.astype("<f4").tobytes() in path.read_bytes()

    def test_file_ends_in_the_sha256_whose_prefix_is_the_model_digest(self, rng, tmp_path):
        model, _ = self.make_model(rng)
        path = tmp_path / "m.stae"
        write_model(model, path)
        data = path.read_bytes()
        assert data[-32:] == hashlib.sha256(data[:-32]).digest()
        assert model_digest(read_model(path)) == model_digest(model) == data[-32:].hex()[:16]

    @pytest.mark.parametrize("array", ["pca mean", "layer 0 weights"])
    def test_flipped_bit_rejected_by_the_sha256(self, tmp_path, array):
        # One low mantissa bit of a finite value: the value stays finite, so
        # only the trailing hash can tell.
        model = _small_model()
        target = {"pca mean": model.front_end.pca_mean,
                  "layer 0 weights": model.layers[0].weight}[array]
        path = tmp_path / "m.stae"
        write_model(model, path)
        data = bytearray(path.read_bytes())
        at = bytes(data).index(target.tobytes()) + target.itemsize  # the second value
        data[at] ^= 1
        path.write_bytes(data)
        with pytest.raises(FormatError, match="^model sha256: "):
            read_model(path)

    def test_version_1_file_says_to_retrain(self, tmp_path):
        path = tmp_path / "m.stae"
        write_model(_small_model(), path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<H", 1) + data[6:])
        with pytest.raises(VersionUnsupported, match="retrain the model with train-ae"):
            read_model(path)

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

    @pytest.mark.parametrize("array", ["pca mean", "pca basis", "layer 0 weights",
                                       "layer 1 bias"])
    def test_non_finite_array_rejected(self, tmp_path, array):
        model = _small_model()
        fe, layers = model.front_end, model.layers
        target = {"pca mean": fe.pca_mean, "pca basis": fe.pca_basis,
                  "layer 0 weights": layers[0].weight, "layer 1 bias": layers[1].bias}[array]
        target.flat[-1] = np.nan
        write_model(model, tmp_path / "m.stae")
        with pytest.raises(FormatError, match=f"^{array}: non-finite values"):
            read_model(tmp_path / "m.stae")

    def test_huge_declared_layer_rejected_before_reading(self, tmp_path):
        # A valid C=2, K=1 front end, then one layer declaring a
        # (2**32 - 1) x (2**32 - 1) weight matrix.
        path = tmp_path / "m.stae"
        path.write_bytes(
            struct.pack("<4sHIId", b"STAE", MODEL_VERSION, 2, 1, 1e-3)
            + struct.pack("<ii", 0, 0)
            + np.zeros(2 + 2, dtype="<f8").tobytes()
            + struct.pack("<H", 1)
            + struct.pack("<IIBH", 0xFFFFFFFF, 0xFFFFFFFF, 0, 0)
        )
        with pytest.raises(PayloadTruncated) as exc:
            read_model(path)
        assert "layer 0 weights" in str(exc.value)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A 2-utterance, 2-stream corpus as write_corpus writes it."""
    spec = CorpusSpec(num_utterances=2, frames_min=10, frames_max=12, num_classes=3,
                      num_streams=2, seed=4)
    out = tmp_path_factory.mktemp("manifest") / "corpus"
    write_corpus("ldc_like", spec, out)
    return out


def _parse_manifest(text: str) -> list[tuple[int, int, int, list[dict]]]:
    """(utt, frames, oracle, profile fields) per line of a manifest text."""
    records = []
    for line in text.splitlines():
        fields = dict(token.split("=", 1) for token in line.split())
        profiles = [dict(kv.split(":") for kv in p.split(","))
                    for p in fields["profiles"].split(";")]
        records.append((int(fields["utt"]), int(fields["frames"]), int(fields["oracle"]),
                        profiles))
    return records


class TestManifest:
    """manifest.txt: manifest_text writes it, and load_corpus refuses any
    other bytes in its place with one message."""

    PROFILES = [CorruptionProfile(uniform_mix=0.1, smear_width=3, offset=-1),
                CorruptionProfile(fail=True)]

    def test_frozen_bytes(self):
        # The format perfbench's read_shape and earlier corpora read.
        assert manifest_text([90], 1, self.PROFILES) == (
            "utt=0 frames=90 oracle=1 "
            "profiles=lam:0.1,smear:3,fail:0,off:-1;lam:0.0,smear:0,fail:1,off:0\n"
        )

    def test_round_trip(self):
        text = manifest_text([90, 120], 1, self.PROFILES)
        want = [{"lam": "0.1", "smear": "3", "fail": "0", "off": "-1"},
                {"lam": "0.0", "smear": "0", "fail": "1", "off": "0"}]
        assert _parse_manifest(text) == [(0, 90, 1, want), (1, 120, 1, want)]

    def test_float_mix_round_trips_exactly(self):
        mixes = [0.1, 1 / 3, 0.6, 2.5e-17]
        text = manifest_text([5], 0, [CorruptionProfile(uniform_mix=m) for m in mixes])
        [(_, _, _, profiles)] = _parse_manifest(text)
        assert [float(p["lam"]) for p in profiles] == mixes

    def refused(self, corpus, tmp_path, edit):
        """load_corpus on a copy of corpus whose manifest lines edit(lines) gives."""
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        manifest = copy / "manifest.txt"
        lines = edit(manifest.read_text().splitlines())
        manifest.write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(StreamFuseError) as exc:
            load_corpus(copy)
        assert str(exc.value) == f"{manifest} is not the manifest {copy / 'corpus.cfg'} gives"

    def test_comments_and_blank_lines_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path, lambda lines: ["# header", "", *lines])

    def test_bad_token_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path, lambda lines: [*lines, "garbage"])

    def test_unknown_field_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path,
                     lambda lines: [lines[0].replace(" profiles=", " bogus=1 profiles="),
                                    *lines[1:]])

    def test_missing_field_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path,
                     lambda lines: [re.sub(r"oracle=\S+ ", "", lines[0]), *lines[1:]])

    @pytest.mark.parametrize("pattern, repeated", [
        (r"(oracle=\S+)", r"\1 \1"),
        (r"(lam:[^,]+),", r"\1,\1,"),
    ], ids=["field", "profile field"])
    def test_repeated_key_rejected(self, tiny_corpus, tmp_path, pattern, repeated):
        self.refused(tiny_corpus, tmp_path,
                     lambda lines: [re.sub(pattern, repeated, lines[0], count=1), *lines[1:]])

    def test_unknown_profile_field_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path, lambda lines: [lines[0] + ",extra:1", *lines[1:]])

    def test_bad_profile_token_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path,
                     lambda lines: [lines[0].split("profiles=")[0] + "profiles=nonsense",
                                    *lines[1:]])

    def test_non_numeric_value_rejected(self, tiny_corpus, tmp_path):
        self.refused(tiny_corpus, tmp_path,
                     lambda lines: [lines[0].replace("utt=0", "utt=zero"), *lines[1:]])

class TestStreamHeader:
    def test_fields_match_read_stream(self, rng, tmp_path):
        path = tmp_path / "a.strm"
        write_stream(random_stream(rng, 7, 3, stream_id=-2, frame_offset=4), path)
        s = read_stream(path)
        assert read_stream_header(path) == (s.num_frames, s.num_classes, -2, 4)

    def test_size_contradicting_header_rejected(self, rng, tmp_path):
        path = tmp_path / "a.strm"
        write_stream(random_stream(rng, 7, 3), path)
        data = path.read_bytes()
        for bad in (data[:-1], data + b"\x00"):
            path.write_bytes(bad)
            with pytest.raises(PayloadTruncated):
                read_stream_header(path)

    def test_payload_not_checked(self, tmp_path):
        # The simplex check is read_stream's, on use.
        path = tmp_path / "x.strm"
        path.write_bytes(stream_bytes(np.array([[0.5, 0.49]], dtype="<f4")))
        assert read_stream_header(path).num_frames == 1
        with pytest.raises(InvalidSimplex):
            read_stream(path)

    def test_rows_of_zero_columns_rejected_without_allocating(self, tmp_path):
        # T = 2**32 - 1 rows of C = 0 classes: a 0-byte payload matches the
        # size check, but its row sums would take 32 GiB.
        path = tmp_path / "x.strm"
        path.write_bytes(struct.pack("<4sHIIiiB", b"SATN", 1, 0, 0xFFFFFFFF, 0, 0, 0))
        for reader in (read_stream, read_stream_header):
            with pytest.raises(InvalidSimplex):
                reader(path)


def _small_model() -> AeModel:
    rng = np.random.default_rng(0)
    front = FrontEnd(pca_mean=rng.normal(size=3), pca_basis=np.eye(3)[:, :2])
    layers = [
        Layer(rng.normal(size=(4, 3)), rng.normal(size=3), "relu", (-1, 1)),
        Layer(rng.normal(size=(3, 2)), rng.normal(size=2), "linear", (0,)),
    ]
    return AeModel(front_end=front, layers=layers, context=(-1, 1))


def _written(writer, obj, path) -> bytes:
    writer(obj, path)
    return path.read_bytes()


# Mutations of a valid file: flip bits of one byte, cut the file short, or
# overwrite one header field with boundary or random bytes.  Huge counts
# must fail the size checks, which run before any payload is read or
# allocated.
_BYTE_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
)
_FIELD_VALUE = st.one_of(
    st.sampled_from([b"\x00" * 8, b"\xff" * 8, b"\x01" + b"\x00" * 7, b"\xff\xff\xff\x7f" * 2]),
    st.binary(min_size=8, max_size=8),
)


def _edit_bytes(data: bytes, edit) -> bytes:
    kind, where, *flip = edit
    if kind == "cut":
        return data[: where % len(data)]
    buf = bytearray(data)
    buf[where % len(buf)] ^= flip[0]
    return bytes(buf)


def _field_spans(fmt: str, start: int = 0) -> list[tuple[int, int]]:
    """(offset, size) of each field of a little-endian struct format placed at start."""
    spans, at = [], start
    for code in re.findall(r"\d*[a-zA-Z]", fmt.lstrip("<")):
        size = struct.calcsize("<" + code)
        spans.append((at, size))
        at += size
    return spans


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Valid bytes and header-field spans for each binary reader."""
    rng = np.random.default_rng(7)
    tmp = tmp_path_factory.mktemp("valid")
    stream = write_stream, random_stream(rng, 5, 3, stream_id=2, frame_offset=-1), "<4sHIIiiB"
    model = _small_model()
    C, K = model.front_end.pca_basis.shape
    layers_at = struct.calcsize("<4sHIIdii") + 8 * (C + C * K)
    files = {
        read_stream: stream,
        read_stream_header: stream,
        read_schedule: (write_schedule, random_schedule(rng, 4, 3), "<4sHIIB"),
        read_model: (write_model, model, "<4sHIIdii"),
    }
    out = {}
    for reader, (writer, obj, header) in files.items():
        spans = _field_spans(header)
        if reader is read_model:  # the layer count and layer 0's header
            spans += _field_spans("<HIIBH", layers_at)
        out[reader] = _written(writer, obj, tmp / reader.__name__), spans
    return out


_READERS = pytest.mark.parametrize(
    "reader", [read_stream, read_stream_header, read_schedule, read_model],
    ids=lambda f: f.__name__,
)


def _read_or_format_error(reader, path, data: bytes) -> FormatError | None:
    path.write_bytes(data)
    try:
        reader(path)
    except FormatError as e:
        return e
    return None


@_READERS
@settings(max_examples=60, deadline=None)
@given(edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_flipped_or_cut_files_raise_only_format_errors(valid_files, tmp_path_factory, reader,
                                                        edits):
    valid, _ = valid_files[reader]
    data = valid
    for edit in edits:
        if data:
            data = _edit_bytes(data, edit)
    error = _read_or_format_error(reader, tmp_path_factory.getbasetemp() / "fuzz-bytes", data)
    if reader is read_model and data != valid:
        # The trailing sha256 covers every byte before it.
        assert error is not None


@_READERS
@settings(max_examples=60, deadline=None)
@given(field=st.integers(0, 11), value=_FIELD_VALUE)
def test_mutated_header_fields_raise_only_format_errors(valid_files, tmp_path_factory, reader,
                                                        field, value):
    data, fields = valid_files[reader]
    at, size = fields[field % len(fields)]
    mutated = data[:at] + value[:size] + data[at + size :]
    error = _read_or_format_error(reader, tmp_path_factory.getbasetemp() / "fuzz-field", mutated)
    if reader is not read_model and mutated[:4] == data[:4] and mutated[4:6] == data[4:6]:
        # Columns and rows follow magic and version: a payload size they no
        # longer match fails the size check.
        def payload_bytes(b):
            return 4 * struct.unpack_from("<I", b, 6)[0] * struct.unpack_from("<I", b, 10)[0]

        if payload_bytes(mutated) != payload_bytes(data):
            assert isinstance(error, PayloadTruncated), error
