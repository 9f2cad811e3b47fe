"""Autoencoder monitor: front-end, splicing, training and attention weights."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import loss_and_grad_copies, random_simplex, random_stream, random_stream_set
from streamfuse import aemonitor, experiments, simulator, storage
from streamfuse.aemonitor import (
    DEFAULT_LOGIT_CLAMP,
    ERROR_FLOOR,
    PAPER_HIDDEN_WIDTHS,
    SPLICE_PLANS,
    AeModel,
    FrontEnd,
    Layer,
    TrainConfig,
    ae_attention,
    build_architecture,
    fit_front_end,
    fit_pca,
    forward,
    front_end_apply,
    logit_transform,
    train_ae,
)
from streamfuse.core import PosteriorStream, StreamSet, check_simplex, inverse_weights
from streamfuse.decoder import make_hmm
from streamfuse.errors import (
    DegenerateData,
    DimensionMismatch,
    DivergedTraining,
    StreamFuseError,
)
from streamfuse.simulator import CorpusSpec


def zero_output_model(C=2, clamp=DEFAULT_LOGIT_CLAMP) -> AeModel:
    """Model that reconstructs everything as zero: error = ||features||^2."""
    fe = FrontEnd(pca_mean=np.zeros(C), pca_basis=np.eye(C), logit_clamp=clamp)
    layer = Layer(weight=np.zeros((C, C)), bias=np.zeros(C), activation="linear")
    return AeModel(front_end=fe, layers=[layer], context=(0, 0))


def two_class_row(feature_norm_sq: float) -> np.ndarray:
    """Two-class posterior row whose logit feature has the given sq. norm.

    For a row (p, 1-p) the logits are (x, -x) with x = logit(p), so the
    squared norm is 2 x^2.
    """
    x = math.sqrt(feature_norm_sq / 2.0)
    p = 1.0 / (1.0 + math.exp(-x))
    return np.array([p, 1.0 - p])


class TestLogitTransform:
    def test_half_maps_to_zero(self):
        assert logit_transform(np.array([0.5]))[0] == 0.0

    def test_clamp_bounds_zero(self):
        got = logit_transform(np.array([0.0]), clamp=1e-6)[0]
        assert got == pytest.approx(ref.logit_ref(0.0, 1e-6), rel=1e-12)
        assert got == pytest.approx(math.log(1e-6 / (1 - 1e-6)), rel=1e-12)

    @pytest.mark.parametrize("clamp", [0.0, 0.5, 0.7, -1.0, math.nan])
    def test_clamp_outside_open_range_rejected(self, rng, clamp):
        rows = random_simplex(rng, 20, 4)
        with pytest.raises(ValueError, match="logit_clamp"):
            fit_front_end(rows, 2, logit_clamp=clamp)
        with pytest.raises(ValueError, match="logit_clamp"):
            FrontEnd(pca_mean=np.zeros(4), pca_basis=np.eye(4)[:, :2], logit_clamp=clamp)

    @settings(deadline=None)
    @given(st.floats(1e-5, 1 - 1e-5))
    def test_antisymmetric(self, p):
        z = logit_transform(np.array([p, 1.0 - p]))
        assert z[0] == pytest.approx(-z[1], rel=1e-9, abs=1e-12)

    def test_monotone(self, rng):
        p = np.sort(rng.uniform(0, 1, size=50))
        z = logit_transform(p)
        assert np.all(np.diff(z) >= 0)


class TestFitPca:
    def test_basis_orthonormal(self, rng):
        fe = fit_pca(rng.standard_normal((200, 6)), 4)
        np.testing.assert_allclose(fe.pca_basis.T @ fe.pca_basis, np.eye(4), atol=1e-10)

    def test_axis_aligned_variances_preserved(self, rng):
        scales = np.array([3.0, 2.0, 1.0, 0.5])
        data = rng.standard_normal((5000, 4)) * scales
        fe = fit_pca(data, 4)
        proj = (data - fe.pca_mean) @ fe.pca_basis
        # No whitening: projected variances equal the input variances,
        # sorted descending (up to the sampling wobble of the fitted axes).
        np.testing.assert_allclose(
            proj.var(axis=0, ddof=1),
            np.sort(data.var(axis=0, ddof=1))[::-1],
            rtol=5e-3,
        )
        # Components align with the axes (up to sign, fixed positive).
        np.testing.assert_allclose(np.abs(fe.pca_basis), np.eye(4), atol=0.05)
        assert np.all(fe.pca_basis[np.argmax(np.abs(fe.pca_basis), axis=0), range(4)] > 0)

    def test_projection_decorrelates(self, rng):
        mix = rng.standard_normal((5, 5))
        data = rng.standard_normal((2000, 5)) @ mix
        fe = fit_pca(data, 5)
        proj = (data - fe.pca_mean) @ fe.pca_basis
        cov = np.cov(proj.T)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-4 * np.max(np.diag(cov))

    def test_full_rank_round_trip(self, rng):
        data = rng.standard_normal((300, 4))
        fe = fit_pca(data, 4)
        recon = (data - fe.pca_mean) @ fe.pca_basis @ fe.pca_basis.T + fe.pca_mean
        np.testing.assert_allclose(recon, data, atol=1e-8)

    def test_top_direction_maximizes_variance(self, rng):
        cov_root = np.array([[2.0, 0.5], [0.5, 1.0]])
        data = rng.standard_normal((3000, 2)) @ cov_root
        fe = fit_pca(data, 1)
        proj_var = ((data - fe.pca_mean) @ fe.pca_basis).var(ddof=1)
        centered = data - data.mean(axis=0)
        for _ in range(1000):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            assert proj_var >= (centered @ d).var(ddof=1) - 1e-9

    def test_degenerate_data_rejected(self, rng):
        base = rng.standard_normal((100, 1))
        data = np.hstack([base, 2.0 * base, -base])  # rank 1
        with pytest.raises(DegenerateData):
            fit_pca(data, 2)

    def test_deterministic(self, rng):
        data = rng.standard_normal((100, 4))
        a, b = fit_pca(data, 3), fit_pca(data, 3)
        np.testing.assert_array_equal(a.pca_basis, b.pca_basis)

    def test_k_larger_than_c_rejected(self, rng):
        with pytest.raises(ValueError):
            fit_pca(rng.standard_normal((50, 3)), 4)


class TestSplicing:
    def test_receptive_fields_match_contexts(self):
        for context, plan in SPLICE_PLANS.items():
            assert ref.receptive_field(plan) == context

    def test_zero_context_is_identity(self, rng):
        feats = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(ref.splice_context(feats, 3, (0, 0)), feats[3])

    def test_wide_context_concatenates_neighbours(self, rng):
        feats = rng.standard_normal((20, 3))
        # First layer of the (-16, 12) plan splices offsets -2..2.
        got = ref.splice_context(feats, 10, (-16, 12))
        np.testing.assert_array_equal(got, feats[8:13].reshape(-1))

    def test_edges_repeat_boundary_frames(self, rng):
        feats = rng.standard_normal((20, 3))
        got = ref.splice_context(feats, 0, (-16, 12))
        expect = np.concatenate([feats[0], feats[0], feats[0], feats[1], feats[2]])
        np.testing.assert_array_equal(got, expect)


class TestArchitecture:
    def test_published_stack_shapes(self):
        layers = build_architecture(24, context=(-8, 5))
        assert len(layers) == len(PAPER_HIDDEN_WIDTHS) + 1
        plan = SPLICE_PLANS[(-8, 5)]
        widths = [24, *PAPER_HIDDEN_WIDTHS, 24]
        for i, ly in enumerate(layers):
            assert ly.weight.shape == (widths[i] * len(plan[i]), widths[i + 1])
            assert ly.offsets == plan[i]
        assert layers[-1].activation == "linear"
        assert all(ly.activation == "relu" for ly in layers[:-1])

    def test_custom_widths_need_zero_context(self):
        with pytest.raises(ValueError):
            build_architecture(8, context=(-8, 5), hidden_widths=(4, 4))

    def test_forward_output_shape(self, rng):
        layers = build_architecture(5, hidden_widths=(7, 3, 7), rng=rng)
        out = forward(layers, rng.standard_normal((11, 5)))
        assert out.shape == (11, 5)


def numeric_gradient_check(layers, z, rows=None, step=1e-4):
    """Max relative error of analytic vs central-difference gradients."""
    _, grads = loss_and_grad_copies(layers, z, rows)
    worst = 0.0
    for ly, (gw, gb) in zip(layers, grads):
        for arr, g in ((ly.weight, gw), (ly.bias, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                lp, _ = loss_and_grad_copies(layers, z, rows)
                arr[ix] = orig - step
                lm, _ = loss_and_grad_copies(layers, z, rows)
                arr[ix] = orig
                num = (lp - lm) / (2 * step)
                denom = max(abs(num), abs(g[ix]), 1e-6)
                worst = max(worst, abs(num - g[ix]) / denom)
    return worst


class TestGradients:
    def test_dense_stack(self, rng):
        layers = build_architecture(3, hidden_widths=(6, 4, 6), rng=rng)
        z = rng.standard_normal((7, 3))
        assert numeric_gradient_check(layers, z) <= 1e-3

    def test_spliced_stack(self, rng):
        widths = [3, 5, 4, 3]
        offsets = [(-1, 0, 1), (-2, 0), (0,)]
        layers = []
        for i, offs in enumerate(offsets):
            fan_in = widths[i] * len(offs)
            layers.append(
                Layer(
                    weight=rng.standard_normal((fan_in, widths[i + 1])) * 0.5,
                    bias=rng.standard_normal(widths[i + 1]) * 0.1,
                    activation="linear" if i == len(offsets) - 1 else "relu",
                    offsets=offs,
                )
            )
        z = rng.standard_normal((9, 3))
        assert numeric_gradient_check(layers, z) <= 1e-3

    def test_row_subset_loss(self, rng):
        layers = build_architecture(3, hidden_widths=(5,), rng=rng)
        z = rng.standard_normal((8, 3))
        assert numeric_gradient_check(layers, z, rows=np.array([1, 4, 6])) <= 1e-3


def assert_bits_equal(got, want):
    """Equal arrays of one dtype, down to the sign of every zero."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    bits = f"u{got.dtype.itemsize}"
    assert np.array_equal(got.view(bits), want.view(bits))


PLAN_CONTEXTS = sorted(SPLICE_PLANS)
offset_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(tuple)
# Every layer's offsets in every splice plan.
PLAN_OFFSETS = sorted({offs for plan in SPLICE_PLANS.values() for offs in plan})


def small_spliced_stack(rng, plan, K):
    """ReLU stack with a given splice plan and small random widths."""
    widths = [K, *rng.integers(1, 7, size=len(plan) - 1), K]
    return [
        Layer(
            weight=rng.standard_normal((widths[i] * len(offs), widths[i + 1])),
            bias=rng.standard_normal(widths[i + 1]) * 0.5,
            activation="linear" if i == len(plan) - 1 else "relu",
            offsets=tuple(offs),
        )
        for i, offs in enumerate(plan)
    ]


class TestBitExactKernels:
    """The slice splice, ordered scatter and in-place updates against the
    fancy-index gather, np.add.at and out-of-place arithmetic they replace."""

    @staticmethod
    def check_splice_pair(offsets, T, W, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((T, W))
        want, idx = ref.splice_gather_ref(h, offsets)
        # A backward input as the GEMM makes it: some rows exactly zero.
        dx = rng.standard_normal((T, len(offsets) * W))
        dx[rng.random(T) < 0.3] = 0.0
        want_back = ref.splice_scatter_ref(dx, idx, W)
        assert_bits_equal(aemonitor._splice(h, offsets), want)
        assert_bits_equal(aemonitor._unsplice(dx, offsets), want_back)
        # Into buffers left with more rows by a longer sequence, here all
        # NaN: a stale row that leaked into the result would show.
        rows = T + int(rng.integers(1, 9))
        out = np.full((rows, len(offsets) * W), np.nan)
        got = aemonitor._splice(h, offsets, out=out)
        assert_bits_equal(got, want)
        assert offsets == (0,) or np.shares_memory(got, out)
        out = np.full((rows, W), np.nan)
        got = aemonitor._unsplice(dx, offsets, out=out)
        assert_bits_equal(got, want_back)
        assert offsets == (0,) or np.shares_memory(got, out)

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(PLAN_CONTEXTS), st.integers(1, 40), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    def test_plan_splice_and_scatter(self, context, T, W, seed):
        for offsets in SPLICE_PLANS[context]:
            self.check_splice_pair(offsets, T, W, seed)

    @settings(deadline=None, max_examples=150)
    @given(offset_lists, st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_any_offsets_splice_and_scatter(self, offsets, T, W, seed):
        self.check_splice_pair(offsets, T, W, seed)

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(st.sampled_from(PLAN_OFFSETS), offset_lists), st.integers(1, 4),
           st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_batched_splice_splices_each_sequence_alone(self, offsets, B, T, W, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((B, T, W))
        # Into a NaN-filled buffer with more rows than the B * T needed.
        rows = B * T + int(rng.integers(1, 9))
        out = np.full((rows, len(offsets) * W), np.nan)
        got = aemonitor._splice(h, offsets, out=out)
        assert got.shape == (B, T, len(offsets) * W)
        for b in range(B):
            assert_bits_equal(got[b], ref.splice_gather_ref(h[b], offsets)[0])
        if offsets != (0,):
            assert np.shares_memory(got, out)
            assert np.isnan(out[B * T :]).all()

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(PLAN_CONTEXTS), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.booleans(), st.integers(1, 12))
    def test_forward_loss_and_grads(self, context, T, seed, subset, longer):
        rng = np.random.default_rng(seed)
        K = 3
        layers = small_spliced_stack(rng, SPLICE_PLANS[context], K)
        z = rng.standard_normal((T, K))
        rows = None
        if subset:
            start = int(rng.integers(0, T))
            rows = np.arange(start, min(T, start + int(rng.integers(1, 17))))
        want = ref.forward_ref(layers, z)
        loss_ref, grads_ref = ref.loss_and_grads_ref(layers, z, z, rows)
        # A buffer set that a longer sequence used first, and fresh sets.
        work = aemonitor._Buffers(layers, T + longer)
        z_long = rng.standard_normal((T + longer, K))
        loss_and_grad_copies(layers, z_long, None, work)
        for shared in (work, None):
            assert_bits_equal(forward(layers, z, shared), want)
            loss, grads = loss_and_grad_copies(layers, z, rows, shared)
            assert loss == loss_ref
            for (gw, gb), (rw, rb) in zip(grads, grads_ref):
                assert_bits_equal(gw, rw)
                assert_bits_equal(gb, rb)

    @settings(deadline=None, max_examples=20)
    @given(
        st.sampled_from(PLAN_CONTEXTS),
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
        st.integers(0, 16),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_ragged_training_matches_reference_loop(self, context, lengths, batch_extra,
                                                    epochs, seed):
        # Ragged sequences (the longest anywhere, down to one frame) and
        # batches from one frame to more than the longest sequence, so
        # one-row tails and one-batch sequences both occur.
        rng = np.random.default_rng(seed)
        C, K = 4, 3
        data = [PosteriorStream(random_simplex(rng, T, C, 2.0), stream_id=-1) for T in lengths]
        fe = FrontEnd(pca_mean=np.zeros(C), pca_basis=np.eye(C)[:, :K])
        batch_size = 1 + batch_extra % (max(lengths) + 4)
        cfg = TrainConfig(learning_rate=1e-4, epochs=epochs, batch_size=batch_size, seed=seed)
        model, losses = train_ae(data, cfg, context=context, front_end=fe)
        layers = build_architecture(K, context, rng=np.random.default_rng(seed))
        z_list = [front_end_apply(fe, s.probs) for s in data]
        assert losses == ref.train_loop_ref(layers, z_list, cfg)
        for got, want in zip(model.layers, layers):
            assert_bits_equal(got.weight, want.weight)
            assert_bits_equal(got.bias, want.bias)

    def test_training_matches_reference_loop(self, rng):
        data = [
            PosteriorStream(random_simplex(rng, T, 8, 2.0), stream_id=-1)
            for T in (40, 23, 37)
        ]
        fe = fit_front_end(np.vstack([s.probs for s in data]), 8)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=3)
        model, losses = train_ae(data, cfg, context=(-16, 12), front_end=fe)
        layers = build_architecture(8, (-16, 12), rng=np.random.default_rng(cfg.seed))
        z_list = [front_end_apply(fe, s.probs) for s in data]
        assert losses == ref.train_loop_ref(layers, z_list, cfg)
        for got, want in zip(model.layers, layers):
            assert_bits_equal(got.weight, want.weight)
            assert_bits_equal(got.bias, want.bias)

    def test_training_peak_memory(self, rng):
        # One reused buffer set and one gradient scratch: the peak stays
        # within a small multiple of the weights (the weights themselves,
        # their velocities, the largest layer's gradient and activations).
        data = [
            PosteriorStream(random_simplex(rng, T, 8, 2.0), stream_id=-1)
            for T in (24, 30, 27)
        ]
        fe = fit_front_end(np.vstack([s.probs for s in data]), 8)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3)
        tracemalloc.start()
        try:
            model, _ = train_ae(data, cfg, context=(-16, 12), front_end=fe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = sum(ly.weight.nbytes + ly.bias.nbytes for ly in model.layers)
        assert peak <= 3.4 * params


class TestWindowedFloat32Training:
    """train_ae runs each minibatch on its receptive-field window, in float32."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(PLAN_CONTEXTS), st.lists(st.integers(1, 48), min_size=1, max_size=3),
           st.integers(1, 52), st.integers(0, 2**32 - 1))
    @example((-16, 12), [17, 1], 8, 0)  # a one-row tail and a one-frame sequence
    def test_window_gives_the_full_sequence_loss_and_gradients(self, context, lengths,
                                                               batch_size, seed):
        # In float64: the frames cut off, and those at an inner window edge,
        # reach no output of the batch, so only the order of sums changes.
        rng = np.random.default_rng(seed)
        K = 3
        layers = small_spliced_stack(rng, SPLICE_PLANS[context], K)
        left, right = context
        for T in lengths:
            z = rng.standard_normal((T, K))
            for start in range(0, T, batch_size):
                stop = min(start + batch_size, T)
                lo, hi = max(start + left, 0), min(stop + right, T)
                loss, grads = loss_and_grad_copies(layers, z, np.arange(start, stop))
                got, got_grads = loss_and_grad_copies(layers, z[lo:hi],
                                                      np.arange(start - lo, stop - lo))
                assert got == pytest.approx(loss, rel=1e-12, abs=0.0)
                for pair, want_pair in zip(got_grads, grads):
                    for g, want in zip(pair, want_pair):
                        assert g.dtype == np.float64
                        np.testing.assert_allclose(g, want, rtol=1e-12,
                                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("context", [(0, 0), (-16, 12)])
    def test_float32_loss_log_tracks_float64(self, context):
        # The published stack on 8 clean 40-class utterances.  Over seeds
        # 0-9 at both contexts, 3 epochs, the largest relative gap between
        # the two logs was 1.4e-4; at seed 7 it is 2.9e-9 at (0, 0) and
        # 5.4e-5 at (-16, 12).
        C, seed = 40, 7
        spec = CorpusSpec(num_utterances=8, frames_min=80, frames_max=160, num_classes=C,
                          num_streams=2, seed=seed)
        _, cleans = simulator.generate_reference(spec, make_hmm(C, seed))
        fe = fit_front_end(np.vstack([s.probs for s in cleans]))
        cfg = TrainConfig(epochs=3, seed=seed)
        _, losses = train_ae(cleans, cfg, context=context, front_end=fe)
        layers = build_architecture(fe.output_dim, context, rng=np.random.default_rng(seed))
        z_list = [front_end_apply(fe, s.probs) for s in cleans]
        want = ref.train_loop_ref(layers, z_list, cfg, dtype=np.float64)
        assert losses != want  # it did train in float32
        np.testing.assert_allclose(losses, want, rtol=1e-3)


class TestTraining:
    def make_data(self, rng, n=4, T=60, C=5, alpha=2.0):
        return [
            PosteriorStream(random_simplex(rng, T, C, alpha), stream_id=-1)
            for _ in range(n)
        ]

    @staticmethod
    def front_end(data):
        """The CLI's front end: fitted on every training row at the default K and clamp."""
        return fit_front_end(np.vstack([s.probs for s in data]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        TrainConfig(learning_rate=0.0)  # zero is allowed (makes a no-op run)

    def test_linear_ae_learns_identity(self, rng):
        # A single full-width linear layer can represent the identity map,
        # so the final loss collapses well below the random-init loss.
        data = self.make_data(rng)
        cfg = TrainConfig(learning_rate=0.02, epochs=40, batch_size=32, seed=0)
        model, losses = train_ae(data, cfg, self.front_end(data), hidden_widths=())
        assert losses[-1] < 0.1 * losses[0]

    def test_zero_learning_rate_is_noop(self, rng):
        data = self.make_data(rng)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=5)
        model, losses = train_ae(data, cfg, self.front_end(data), hidden_widths=(4,))
        assert losses == [losses[0]] * len(losses)
        fe = model.front_end
        init = build_architecture(fe.output_dim, (0, 0), (4,), np.random.default_rng(5))
        # Training starts from the float32 cast of the float64 init.
        for got, expect in zip(model.layers, init):
            np.testing.assert_array_equal(got.weight, expect.weight.astype(np.float32))
            np.testing.assert_array_equal(got.bias, expect.bias.astype(np.float32))

    def test_seed_determinism_bitwise(self, rng):
        data = self.make_data(rng)
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=9)
        m1, l1 = train_ae(data, cfg, self.front_end(data), hidden_widths=(4, 3, 4))
        m2, l2 = train_ae(data, cfg, self.front_end(data), hidden_widths=(4, 3, 4))
        assert l1 == l2
        for a, b in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_loss_log_length(self, rng):
        data = self.make_data(rng, n=2, T=30)
        _, losses = train_ae(data, TrainConfig(epochs=7), self.front_end(data),
                             hidden_widths=(3,))
        assert len(losses) == 8

    def test_divergence_detected(self, rng):
        data = self.make_data(rng, n=2, T=30)
        cfg = TrainConfig(learning_rate=1e9, epochs=5)
        with pytest.raises(DivergedTraining):
            train_ae(data, cfg, self.front_end(data), hidden_widths=(4,))

    def test_front_end_of_another_class_count_rejected(self, rng):
        data = self.make_data(rng, n=2, T=30)  # C = 5
        with pytest.raises(DimensionMismatch, match="front end disagree on class count"):
            train_ae(data, TrainConfig(), zero_output_model(C=4).front_end)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_ae([], TrainConfig(), zero_output_model().front_end)


class TestReconstructionErrorsAndAttention:
    def test_zero_model_error_is_feature_norm(self):
        model = zero_output_model()
        row = two_class_row(4.0)
        s = PosteriorStream(row[None, :])
        errs = aemonitor._stacked_errors(model, [s])[0]
        assert errs[0] == pytest.approx(4.0, rel=1e-9)

    def test_errors_one_and_four_weight_point_eight(self):
        model = zero_output_model()
        s1 = PosteriorStream(two_class_row(1.0)[None, :], stream_id=0)
        s4 = PosteriorStream(two_class_row(4.0)[None, :], stream_id=1)
        w = ae_attention(StreamSet([s1, s4]), model).weights
        np.testing.assert_allclose(w, [[0.8, 0.2]], rtol=1e-9)

    def test_equal_errors_equal_weights(self):
        model = zero_output_model()
        row = two_class_row(2.0)
        sset = StreamSet(
            [PosteriorStream(row[None, :], stream_id=m) for m in range(2)]
        )
        np.testing.assert_allclose(ae_attention(sset, model).weights, [[0.5, 0.5]])

    def test_error_floor(self):
        model = zero_output_model()
        perfect = PosteriorStream(np.array([[0.5, 0.5]]), stream_id=0)  # zero feature
        bad = PosteriorStream(two_class_row(1.0)[None, :], stream_id=1)
        w = ae_attention(StreamSet([perfect, bad]), model).weights[0]
        expect = ref.inverse_error_weights_ref([0.0, 1.0], floor=ERROR_FLOOR)
        np.testing.assert_allclose(w, expect, rtol=1e-12)
        assert w[0] == pytest.approx(1e6 / (1e6 + 1), rel=1e-12)

    def test_attention_rows_simplex_and_permutation(self, rng):
        model = zero_output_model(C=3)
        sset = StreamSet(
            [random_stream(rng, 6, 3, stream_id=m) for m in range(4)]
        )
        w = ae_attention(sset, model).weights
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        perm = rng.permutation(4)
        wp = ae_attention(StreamSet([sset.streams[m] for m in perm]), model).weights
        np.testing.assert_allclose(wp, w[:, perm], atol=1e-12)

    @pytest.mark.parametrize(
        "lengths, offsets, classes",
        [((5, 7), (0, 0), (3, 3)), ((6, 6), (0, 1), (3, 3)), ((6, 6), (0, 0), (3, 4))],
        ids=["lengths", "frame_offset", "classes"],
    )
    def test_unaligned_set_or_class_count_raises_before_any_work(
        self, rng, lengths, offsets, classes
    ):
        model = zero_output_model(C=3)
        sset = StreamSet([
            random_stream(rng, T, C, stream_id=m, frame_offset=o)
            for m, (T, o, C) in enumerate(zip(lengths, offsets, classes))
        ])
        with pytest.raises(DimensionMismatch) as err:
            ae_attention(sset, model)
        assert isinstance(err.value, StreamFuseError)
        assert model._work is None

    def test_corruption_raises_median_error(self, rng):
        # Train on peaked posteriors, then compare errors on a held-out
        # clean stream vs increasingly uniform-mixed copies of it.
        C = 12
        alphas = np.full(C, 0.05)

        def emit(n):
            a = np.tile(alphas, (n, 1))
            a[np.arange(n), rng.integers(C, size=n)] = 100.0
            g = rng.gamma(a)
            return g / g.sum(axis=1, keepdims=True)

        train = [PosteriorStream(emit(120)) for _ in range(5)]
        fe = fit_front_end(np.vstack([s.probs for s in train]), 8, logit_clamp=1e-3)
        cfg = TrainConfig(learning_rate=3e-3, epochs=150, seed=0)
        model, _ = train_ae(train, cfg, hidden_widths=(24, 8, 24), front_end=fe)
        held = emit(200)
        medians = [
            float(
                np.median(
                    aemonitor._stacked_errors(
                        model, [PosteriorStream((1 - lam) * held + lam / C)]
                    )[0]
                )
            )
            for lam in (0.0, 0.25, 0.5, 0.75)
        ]
        assert all(b > a for a, b in zip(medians, medians[1:]))


class TestFloat32Inference:
    """The monitor runs the model's float32 layers."""

    @staticmethod
    def spliced_model(rng, C=6, K=4):
        fe = fit_front_end(random_simplex(rng, 200, C), K)
        layers = small_spliced_stack(rng, SPLICE_PLANS[(-16, 12)], K)
        return AeModel(front_end=fe, layers=layers, context=(-16, 12))

    def test_every_buffer_and_splice_stays_float32(self, rng):
        layers = self.spliced_model(rng).layers
        assert all(ly.weight.dtype == ly.bias.dtype == np.float32 for ly in layers)
        T = 23
        z = rng.standard_normal((T, 4))  # float64 features are cast on entry
        work = aemonitor._Buffers(layers, T, backward=False)
        assert forward(layers, z, work).dtype == np.float32
        assert all(a.dtype == np.float32 for a in (*work.x, *work.h))
        assert forward(layers, z).dtype == np.float32  # a fresh set
        back = aemonitor._Buffers(layers, T)
        arrays = [a for a in back.x if a is not None] + back.h
        arrays += [*back.back, back.grad_w, back.grad_b]
        assert all(a.dtype == np.float32 for a in arrays)
        h = z.astype(np.float32)
        for ly in layers:
            assert aemonitor._splice(h, ly.offsets).dtype == np.float32

    def test_output_matches_float64_reference(self, rng):
        model = self.spliced_model(rng)
        layers64 = aemonitor._cast(model.layers, np.float64)
        z = rng.standard_normal((31, 4))
        want = ref.forward_ref(layers64, z)
        assert want.dtype == np.float64
        got = forward(model.layers, z)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())
        s = random_stream(rng, 31, 6)
        feats = front_end_apply(model.front_end, s.probs)
        want = np.sum((ref.forward_ref(layers64, feats) - feats) ** 2, axis=1)
        errs = aemonitor._stacked_errors(model, [s])[0]
        assert errs.dtype == np.float64
        np.testing.assert_allclose(errs, want, rtol=1e-4)

    def test_attention_on_simplex_with_shared_buffers(self, rng):
        model = self.spliced_model(rng)
        sset = random_stream_set(rng, 5, 17, 6)
        w = ae_attention(sset, model).weights
        assert w.dtype == np.float64
        check_simplex(w, "ae attention")
        # One buffer set for all streams gives what a fresh set per stream gives.
        errs = np.stack([aemonitor._stacked_errors(model, [s])[0] for s in sset.streams],
                        axis=1)
        np.testing.assert_array_equal(w, inverse_weights(errs, ERROR_FLOOR))

    def test_model_buffer_set_regrows_only_for_more_rows(self, rng):
        model = self.spliced_model(rng)
        M = 4
        sets = [random_stream_set(rng, M, T, 6) for T in (29, 11, 29, 35)]
        held = []
        for sset in sets:
            fresh = AeModel(front_end=model.front_end, layers=model.layers,
                            context=model.context)
            assert_bits_equal(ae_attention(sset, model).weights,
                              ae_attention(sset, fresh).weights)
            held.append(model._work)
        # Made for the first utterance, kept for the shorter and the equal
        # one, and regrown (not added to) for the longer one.
        assert held[0] is held[1] is held[2] is not held[3]
        assert (held[0].rows, held[3].rows) == (M * 29, M * 35)

    def test_stacked_pass_matches_per_stream_on_the_published_stack(self, rng):
        # The benchmark's shapes: published widths at (-16, 12), K = 40.  A
        # 90-frame stream is big enough that each GEMM, alone or stacked,
        # runs BLAS's blocked kernel: OpenBLAS has a small-matrix kernel,
        # used below about 1e6 multiply-adds on AVX-512 hosts, whose bits
        # differ.
        C, K = 48, 40
        fe = fit_front_end(random_simplex(rng, 400, C), K)
        layers = build_architecture(K, (-16, 12), rng=rng)
        model = AeModel(front_end=fe, layers=layers, context=(-16, 12))
        sset = random_stream_set(rng, 3, 90, C)
        w = ae_attention(sset, model).weights
        errs = np.stack([aemonitor._stacked_errors(model, [s])[0] for s in sset.streams],
                        axis=1)
        np.testing.assert_array_equal(w, inverse_weights(errs, ERROR_FLOOR))

    @pytest.mark.parametrize("context", [(0, 0), (-16, 12)])
    @pytest.mark.parametrize("M, T", [(13, 80), (20, 100)])
    def test_blocks_match_one_pass_over_the_whole_stack(self, rng, context, M, T):
        # Published widths, K = 40, at counts the monitor runs as two blocks
        # (6 + 7 and 10 + 10 streams).  A greedy 12 + 1 split of 13 streams
        # would put the 80-row block on OpenBLAS's small-matrix kernel.
        C, K = 48, 40
        fe = fit_front_end(random_simplex(rng, 400, C), K)
        model = AeModel(front_end=fe, layers=build_architecture(K, context, rng=rng),
                        context=context)
        streams = random_stream_set(rng, M, T, C).streams
        assert len(aemonitor._stream_groups(M, T)) == 2
        z = np.stack([front_end_apply(fe, s.probs) for s in streams])
        want = np.sum((forward(model.layers, z) - z) ** 2, axis=-1)
        assert_bits_equal(aemonitor._stacked_errors(model, streams), want)

    @pytest.mark.parametrize("M, T", [(50, 100), (3, 1500)])
    def test_buffer_set_holds_one_block(self, rng, M, T):
        model = self.spliced_model(rng)
        ae_attention(random_stream_set(rng, M, T, 6), model)
        assert model._work.rows <= max(aemonitor.INFERENCE_ROWS, T)

    @settings(deadline=None)
    @given(st.integers(1, 80), st.integers(0, 3000))
    def test_stream_groups_are_the_fewest_near_equal_blocks(self, M, T):
        groups = aemonitor._stream_groups(M, T)
        assert [m for g in groups for m in g] == list(range(M))
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1
        bound = max(aemonitor.INFERENCE_ROWS, T)
        assert max(sizes) * T <= bound
        # One group fewer would put more streams in some group than fit.
        assert len(groups) == 1 or -(-M // (len(groups) - 1)) * T > bound

    def test_every_model_holds_float32_layers(self, rng, tmp_path):
        built = self.spliced_model(rng)  # made from float64 layers
        fe = fit_front_end(random_simplex(rng, 60, 6), 4)
        data = [random_stream(rng, 20, 6) for _ in range(2)]
        trained, _ = train_ae(data, TrainConfig(epochs=1), context=(-8, 5), front_end=fe)
        first, again = tmp_path / "first.stae", tmp_path / "again.stae"
        for model in (built, trained):
            storage.write_model(model, first)
            digest = experiments._model_digest(model)
            ae_attention(random_stream_set(rng, 3, 15, 6), model)  # leaves the model as it was
            reread = storage.read_model(first)
            for m in (model, reread):
                assert all(ly.weight.dtype == ly.bias.dtype == np.float32 for ly in m.layers)
            # float32 widens exactly to the file's <f8, so write -> read ->
            # write gives the same bytes and the same digest.
            storage.write_model(reread, again)
            assert again.read_bytes() == first.read_bytes()
            assert experiments._model_digest(reread) == experiments._model_digest(model) == digest

    @pytest.mark.parametrize("array", ["weight", "bias"])
    def test_layer_value_beyond_float32_rejected(self, array):
        # A float64 value the float32 cast would make inf: the model is refused,
        # naming the layer, instead of holding inf.
        model = zero_output_model()
        layer = model.layers[0]
        bad = getattr(layer, array).astype(np.float64)
        bad.flat[-1] = 1e300
        label = {"weight": "weights", "bias": "bias"}[array]
        with np.errstate(all="raise"):  # no overflow warning on the way
            with pytest.raises(StreamFuseError, match=f"^layer 0 {label}: non-finite values"):
                AeModel(front_end=model.front_end,
                        layers=[dataclasses.replace(layer, **{array: bad})], context=(0, 0))
