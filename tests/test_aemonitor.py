"""Autoencoder monitor: front-end, splicing, training and attention weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import random_simplex, random_stream
from streamfuse import aemonitor
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
    loss_and_grads,
    receptive_field,
    reconstruction_errors,
    splice_context,
    train_ae,
)
from streamfuse.core import PosteriorStream, StreamSet
from streamfuse.errors import DegenerateData, DivergedTraining


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
            assert receptive_field(plan) == context

    def test_zero_context_is_identity(self, rng):
        feats = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(splice_context(feats, 3, (0, 0)), feats[3])

    def test_wide_context_concatenates_neighbours(self, rng):
        feats = rng.standard_normal((20, 3))
        # First layer of the (-16, 12) plan splices offsets -2..2.
        got = splice_context(feats, 10, (-16, 12))
        np.testing.assert_array_equal(got, feats[8:13].reshape(-1))

    def test_edges_repeat_boundary_frames(self, rng):
        feats = rng.standard_normal((20, 3))
        got = splice_context(feats, 0, (-16, 12))
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
    target = z.copy()
    _, grads = loss_and_grads(layers, z, target, rows)
    worst = 0.0
    for ly, (gw, gb) in zip(layers, grads):
        for arr, g in ((ly.weight, gw), (ly.bias, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                lp, _ = loss_and_grads(layers, z, target, rows)
                arr[ix] = orig - step
                lm, _ = loss_and_grads(layers, z, target, rows)
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
    """Equal arrays, down to the sign of every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


PLAN_CONTEXTS = sorted(SPLICE_PLANS)
offset_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(tuple)


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
        assert_bits_equal(aemonitor._splice(h, offsets), want)
        # A backward input as the GEMM makes it: some rows exactly zero.
        dx = rng.standard_normal((T, len(offsets) * W))
        dx[rng.random(T) < 0.3] = 0.0
        assert_bits_equal(
            aemonitor._unsplice(dx, offsets), ref.splice_scatter_ref(dx, idx, W)
        )

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

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(PLAN_CONTEXTS), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_forward_loss_and_grads(self, context, T, seed, subset):
        rng = np.random.default_rng(seed)
        K = 3
        layers = small_spliced_stack(rng, SPLICE_PLANS[context], K)
        z = rng.standard_normal((T, K))
        rows = None
        if subset:
            start = int(rng.integers(0, T))
            rows = np.arange(start, min(T, start + int(rng.integers(1, 17))))
        assert_bits_equal(forward(layers, z), ref.forward_ref(layers, z))
        loss, grads = loss_and_grads(layers, z, z, rows)
        loss_ref, grads_ref = ref.loss_and_grads_ref(layers, z, z, rows)
        assert loss == loss_ref
        for (gw, gb), (rw, rb) in zip(grads, grads_ref):
            assert_bits_equal(gw, rw)
            assert_bits_equal(gb, rb)

    @pytest.mark.parametrize("optimizer", ["momentum", "sgd"])
    def test_training_matches_reference_loop(self, rng, optimizer):
        data = [
            PosteriorStream(random_simplex(rng, T, 8, 2.0), stream_id=-1)
            for T in (40, 23, 37)
        ]
        fe = fit_front_end(np.vstack([s.probs for s in data]), 8)
        cfg = TrainConfig(
            learning_rate=1e-3, epochs=2, batch_size=16, seed=3, optimizer=optimizer
        )
        model, losses = train_ae(data, cfg, context=(-16, 12), front_end=fe)
        layers = build_architecture(8, (-16, 12), rng=np.random.default_rng(cfg.seed))
        z_list = [front_end_apply(fe, s.probs) for s in data]
        assert losses == ref.train_loop_ref(layers, z_list, cfg)
        for got, want in zip(model.layers, layers):
            assert_bits_equal(got.weight, want.weight)
            assert_bits_equal(got.bias, want.bias)


class TestTraining:
    def make_data(self, rng, n=4, T=60, C=5, alpha=2.0):
        return [
            PosteriorStream(random_simplex(rng, T, C, alpha), stream_id=-1)
            for _ in range(n)
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adam")
        TrainConfig(learning_rate=0.0)  # zero is allowed (makes a no-op run)

    def test_linear_ae_learns_identity(self, rng):
        # A single full-width linear layer can represent the identity map,
        # so the final loss collapses well below the random-init loss.
        data = self.make_data(rng)
        cfg = TrainConfig(learning_rate=0.02, epochs=40, batch_size=32, seed=0)
        model, losses = train_ae(data, cfg, hidden_widths=())
        assert losses[-1] < 0.1 * losses[0]

    def test_zero_learning_rate_is_noop(self, rng):
        data = self.make_data(rng)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=5)
        model, losses = train_ae(data, cfg, hidden_widths=(4,))
        assert losses == [losses[0]] * len(losses)
        fe = model.front_end
        init = build_architecture(fe.output_dim, (0, 0), (4,), np.random.default_rng(5))
        for got, expect in zip(model.layers, init):
            np.testing.assert_array_equal(got.weight, expect.weight)
            np.testing.assert_array_equal(got.bias, expect.bias)

    def test_seed_determinism_bitwise(self, rng):
        data = self.make_data(rng)
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=9)
        m1, l1 = train_ae(data, cfg, hidden_widths=(4, 3, 4))
        m2, l2 = train_ae(data, cfg, hidden_widths=(4, 3, 4))
        assert l1 == l2
        for a, b in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_loss_log_length(self, rng):
        data = self.make_data(rng, n=2, T=30)
        _, losses = train_ae(data, TrainConfig(epochs=7), hidden_widths=(3,))
        assert len(losses) == 8

    def test_divergence_detected(self, rng):
        data = self.make_data(rng, n=2, T=30)
        cfg = TrainConfig(learning_rate=1e9, epochs=5)
        with pytest.raises(DivergedTraining), np.errstate(all="ignore"):
            train_ae(data, cfg, hidden_widths=(4,))

    def test_plain_sgd_supported(self, rng):
        data = self.make_data(rng, n=2, T=40)
        cfg = TrainConfig(learning_rate=0.02, epochs=25, optimizer="sgd")
        _, losses = train_ae(data, cfg, hidden_widths=(3,))
        assert losses[-1] < losses[0]

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_ae([], TrainConfig())


class TestReconstructionErrorsAndAttention:
    def test_zero_model_error_is_feature_norm(self):
        model = zero_output_model()
        row = two_class_row(4.0)
        s = PosteriorStream(row[None, :])
        errs = reconstruction_errors(model, s)
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
                    reconstruction_errors(
                        model, PosteriorStream((1 - lam) * held + lam / C)
                    )
                )
            )
            for lam in (0.0, 0.25, 0.5, 0.75)
        ]
        assert all(b > a for a, b in zip(medians, medians[1:]))
