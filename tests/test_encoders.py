import warnings
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aetlab import encoders, matio
from aetlab.core import (
    DEFAULT_SCALES,
    AttackConfig,
    linf_box,
    matvec_rows,
    scale_augment_adjoint,
    similarity,
)
from aetlab.encoders import (
    BagOfWordsTextEncoder,
    LinearImageEncoder,
    PairLoss,
    embed_captions,
    embed_images,
    embed_pairs,
    encode_image,
    encode_text,
    grad_loss_wrt_image,
    gradient_table,
)
from aetlab.harness import (
    DatasetDims,
    GeneratorParams,
    base_encoders,
    default_model_pool,
    surrogate_projector,
    synth_dataset,
)
from aetlab.subspace import build_projection
from oracles import (
    EDGE_FINITE,
    NON_FINITE,
    finite_difference_grad,
    image_embedding,
    image_loss,
    mismatch_grad_per_call,
    pair_loss,
    planted,
    scale_augment,
    table_row,
    text_embedding,
)


@lru_cache(maxsize=None)
def reference_pool():
    """The seed-18 dataset at the reference shape (300 pairs, d = 64), two
    models of its pool, and the first model's semantic projector."""
    ds = synth_dataset(18, 300, DatasetDims(embed_dim=64))
    pool = default_model_pool(ds, n_models=2)
    return ds, pool, surrogate_projector(ds, pool[0], AttackConfig(master_seed=18))


class TestEncoding:
    def test_encode_image_is_matrix_vector(self, tiny_pair, tiny_image):
        emb = encode_image(tiny_pair.image, tiny_image)
        assert np.array_equal(emb, tiny_pair.image.weight @ tiny_image.ravel())

    def test_encode_image_pixel_count_mismatch(self, tiny_pair):
        with pytest.raises(ValueError):
            encode_image(tiny_pair.image, np.ones((3, 3)))

    def test_encode_text_is_row_mean(self, tiny_pair, tiny_caption):
        emb = encode_text(tiny_pair.text, tiny_caption)
        rows = tiny_pair.text.table[list(tiny_caption)]
        np.testing.assert_allclose(emb, rows.mean(axis=0))

    @pytest.mark.parametrize("length", [1, 2, 5, 50])
    def test_encode_text_keeps_the_bits_of_the_row_mean(self, tiny_pair, rng, length):
        # the one-row case of embed_captions sums position by position, the
        # order a mean over axis 0 adds the token rows in
        for _ in range(20):
            tokens = rng.integers(0, 64, length)
            got = encode_text(tiny_pair.text, tokens)
            assert np.array_equal(got, tiny_pair.text.table[tokens].mean(axis=0))

    def test_encode_text_rejects_out_of_vocab(self, tiny_pair):
        # and an empty, scalar or 2-D caption
        for bad in ((0, 64), (0, -1), (), 3, [[0, 1], [2, 3]]):
            with pytest.raises(ValueError):
                encode_text(tiny_pair.text, bad)

    @pytest.mark.parametrize("length", [1, 4, 12])
    def test_embed_pairs_rows_are_per_pair_encodings(self, tiny_pair, rng, length):
        images = [np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0.0, 1.0) for _ in range(6)]
        captions = [tuple(rng.integers(0, 64, length).tolist()) for _ in range(6)]
        img, txt = embed_pairs(tiny_pair, images, captions)
        assert np.array_equal(img, np.stack([image_embedding(tiny_pair.image, x) for x in images]))
        assert np.array_equal(txt, np.stack([encode_text(tiny_pair.text, c) for c in captions]))

    @settings(max_examples=60, deadline=None)
    @given(model=st.integers(0, 1), order=st.permutations(range(300)), n=st.integers(1, 300))
    def test_rows_do_not_depend_on_batch_composition(self, model, order, n):
        # any subset of the pairs, in any order, embeds to exactly the rows
        # of the full batch, with and without the projector; on this pool a
        # single product over the whole image stack changed the last bits
        # of most rows of batches of 1-17 images
        ds, pool, projector = reference_pool()
        enc, idx = pool[model], list(order[:n])
        images, captions = [ds.images[p] for p in idx], [ds.captions[p] for p in idx]
        got = [*embed_pairs(enc, images, captions)]
        want = [*embed_pairs(enc, ds.images, ds.captions)]
        for p in (None, projector):
            got += [embed_images(enc.image, images, p), embed_captions(enc.text, captions, p)]
            want += [embed_images(enc.image, ds.images, p), embed_captions(enc.text, ds.captions, p)]
        for g, w in zip(got, want):
            assert g.tobytes() == w[idx].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.integers(0, 1),
        order=st.permutations(range(300)),
        n=st.integers(1, 300),
        eps=st.floats(0.5 / 255, 16 / 255),
    )
    def test_attack_setup_rows_equal_one_pair_calls(self, model, order, n, eps):
        # harness.attack_pairs builds each pair's text direction, gradient
        # table, budget box and clean embedding as rows of one stacked call
        # per surrogate: for any subset of the pairs, in any order, each row
        # has the bits of the one-pair call, with and without the projector
        ds, pool, projector = reference_pool()
        enc, idx = pool[model], list(order[:n])
        images, captions = [ds.images[p] for p in idx], [ds.captions[p] for p in idx]
        shape = images[0].shape
        lo, hi = linf_box(np.stack(images), eps)
        for k, x in enumerate(images):
            want_lo, want_hi = linf_box(x, eps)
            assert lo[k].tobytes() == want_lo.tobytes() and hi[k].tobytes() == want_hi.tobytes()
        for p in (None, projector):
            u = embed_captions(enc.text, captions, p)
            grads = gradient_table(enc.image, u, shape, DEFAULT_SCALES)
            clean = embed_images(enc.image, images, p)
            assert sorted(grads) == sorted(DEFAULT_SCALES)
            for k, (x, cap) in enumerate(zip(images, captions)):
                u_one = embed_captions(enc.text, [cap], p)
                assert u[k].tobytes() == u_one.tobytes()
                assert clean[k].tobytes() == embed_images(enc.image, [x], p).tobytes()
                one = gradient_table(enc.image, u_one, shape, DEFAULT_SCALES)
                for s in DEFAULT_SCALES:
                    assert grads[s][k].tobytes() == one[s].tobytes()

    def test_embed_captions_rejects_bad_token_matrices(self, tiny_pair):
        for bad in ([(0, 64)], [(0, -1)], [()], [], [0, 1]):
            with pytest.raises(ValueError):
                embed_captions(tiny_pair.text, bad)

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_embed_images_rows_keep_the_per_image_bits(self, tiny_pair, rng, use_projector):
        # C-ordered, Fortran-ordered, strided and pixel-major stacks, and a
        # list of images, all give the bits of one image_embedding per image
        projector = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        stack = np.clip(0.5 + 0.2 * rng.standard_normal((7, 8, 8)), 0.0, 1.0)
        want = np.stack([image_embedding(tiny_pair.image, x, projector) for x in stack])
        for layout in (
            stack,
            np.asfortranarray(stack),
            np.repeat(stack, 2, axis=0)[::2],
            np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1),
            list(stack),
        ):
            got = embed_images(tiny_pair.image, layout, projector)
            assert got.shape == (7, 16) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_embed_captions_rows_keep_the_per_caption_bits(self, tiny_pair, rng, use_projector):
        # and each caption embedded alone gives its row
        projector = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        captions = rng.integers(0, 64, (7, 5))
        want = np.stack([text_embedding(tiny_pair.text, c, projector) for c in captions])
        got = embed_captions(tiny_pair.text, captions, projector)
        assert got.shape == (7, 16) and got.tobytes() == want.tobytes()
        for c, row in zip(captions, want):
            assert embed_captions(tiny_pair.text, [c], projector)[0].tobytes() == row.tobytes()

    def test_embed_images_rejects_what_encode_image_rejects(self, tiny_pair, tiny_image):
        nan = tiny_image.copy()
        nan[2, 3] = np.nan
        wrong_size = [tiny_image, np.ones((7, 8))]
        for bad in (tiny_image, [tiny_image, nan], np.ones((2, 7, 8)), wrong_size,
                    np.ones((2, 64)), np.ones((2, 8, 8, 1))):
            with pytest.raises(ValueError):
                embed_images(tiny_pair.image, bad, None)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 6), NON_FINITE)
    def test_one_non_finite_pixel_in_a_stack_raises(self, data, n, bad):
        stack = planted(data, (n, 8, 8), st.floats(0.0, 1.0), bad)
        with pytest.raises(ValueError, match=r"^images must be a finite \(n, H, W\) stack"):
            embed_images(tiny_base(5).image, stack, None)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 6), EDGE_FINITE)
    def test_finite_stacks_pass_whatever_their_squares(self, data, n, edge):
        # pixels stay below 1e300, so the embedding itself cannot overflow
        enc = tiny_base(5).image
        stack = planted(data, (n, 8, 8), st.floats(-1e300, 1e300), float(np.clip(edge, -1e300, 1e300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = embed_images(enc, stack, None)
        assert got.tobytes() == matvec_rows(enc.weight, stack.reshape(n, 64)).tobytes()

    def test_pair_loss_matches_similarity(self, tiny_pair, tiny_image, tiny_caption):
        val = pair_loss(tiny_pair, tiny_image, tiny_caption)
        expect = similarity(
            encode_image(tiny_pair.image, tiny_image)[None],
            encode_text(tiny_pair.text, tiny_caption),
        )[0]
        assert val == pytest.approx(expect)

    @pytest.mark.parametrize("scale", [1.0, 0.75])
    @pytest.mark.parametrize("use_projector", [False, True])
    def test_image_loss_is_the_projected_pair_similarity(
        self, tiny_pair, tiny_image, tiny_caption, rng, scale, use_projector
    ):
        # projecting both embeddings and taking their similarity must give
        # the same bits as projecting the caption once into u
        projector = build_projection(rng.standard_normal((5, 16))) if use_projector else None
        x = scale_augment(tiny_image, scale) if scale != 1.0 else tiny_image
        img = encode_image(tiny_pair.image, x)
        txt = encode_text(tiny_pair.text, tiny_caption)
        if projector is not None:
            img, txt = projector @ img, projector @ txt
        u = embed_captions(tiny_pair.text, [tiny_caption], projector)[0]
        assert image_loss(tiny_pair.image, tiny_image, u, projector, scale) == similarity(img[None], txt)[0]

    def test_encoder_validation(self):
        with pytest.raises(ValueError):
            LinearImageEncoder(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            BagOfWordsTextEncoder(np.full((3, 3), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_weight_raises_with_the_message(self, bad):
        m = np.ones((4, 6))
        m[3, 2] = bad
        with pytest.raises(ValueError, match="^image-encoder weight must be a finite 2-D matrix$"):
            LinearImageEncoder(m)
        with pytest.raises(ValueError, match="^text-encoder table must be a finite 2-D matrix$"):
            BagOfWordsTextEncoder(m)

    def test_finite_weights_pass_when_their_squares_overflow(self):
        m = np.full((4, 6), -0.0)
        m[1, 1], m[2, 5] = 1.7e308, 5e-324
        assert LinearImageEncoder(m).weight is m and BagOfWordsTextEncoder(m).table is m


class TestGradients:
    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.25])
    @pytest.mark.parametrize("use_projector", [False, True])
    def test_analytic_matches_finite_difference(
        self, tiny_pair, tiny_image, tiny_caption, rng, scale, use_projector
    ):
        projector = None
        if use_projector:
            emb = rng.standard_normal((5, tiny_pair.image.embed_dim))
            projector = build_projection(emb)
        u = embed_captions(tiny_pair.text, [tiny_caption], projector)[0]
        grads = table_row(gradient_table(tiny_pair.image, u[None], tiny_image.shape, (scale,)))
        loss = PairLoss(tiny_pair.image, u, grads, projector)
        analytic = grad_loss_wrt_image(loss, tiny_image, scale)
        fd = finite_difference_grad(
            lambda z: pair_loss(tiny_pair, z, tiny_caption, projector, scale),
            tiny_image,
        )
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.25])
    def test_back_projection_once_equals_per_call(
        self, tiny_pair, tiny_image, tiny_caption, rng, scale
    ):
        projector = build_projection(rng.standard_normal((5, tiny_pair.image.embed_dim)))
        u = embed_captions(tiny_pair.text, [tiny_caption], projector)[0]
        grads = table_row(
            gradient_table(tiny_pair.image, u[None], tiny_image.shape, DEFAULT_SCALES)
        )
        assert np.array_equal(
            -grad_loss_wrt_image(PairLoss(tiny_pair.image, u, grads, projector), tiny_image, scale),
            mismatch_grad_per_call(tiny_image, u, tiny_pair.image, scale),
        )

    def test_table_equals_per_call_adjoint_at_every_scale(self, tiny_pair, tiny_caption):
        u = embed_captions(tiny_pair.text, [tiny_caption], None)[0]
        back = (tiny_pair.image.weight.T @ u / tiny_pair.image.embed_dim).reshape(8, 8)
        grads = table_row(gradient_table(tiny_pair.image, u[None], (8, 8), DEFAULT_SCALES))
        assert sorted(grads) == sorted(DEFAULT_SCALES)
        for s in DEFAULT_SCALES:
            assert np.array_equal(grads[s], scale_augment_adjoint(back, (8, 8), s))

    def test_table_always_holds_unit_scale_and_one_adjoint_per_other_scale(
        self, tiny_pair, tiny_caption, monkeypatch
    ):
        calls = []

        def counted(g, shape, s, _fn=encoders.scale_augment_adjoint):
            calls.append(s)
            return _fn(g, shape, s)

        monkeypatch.setattr(encoders, "scale_augment_adjoint", counted)
        u = embed_captions(tiny_pair.text, [tiny_caption], None)[0]
        grads = table_row(gradient_table(tiny_pair.image, u[None], (8, 8), (0.5, 1.5, 0.5)))
        assert sorted(grads) == [0.5, 1.0, 1.5]
        assert calls == [0.5, 1.5]

    def test_unit_scale_is_a_fresh_copy_of_the_adjoint(self, tiny_pair, tiny_image, tiny_caption):
        # the gradient is the table's read-only row itself, not a copy: it
        # equals the adjoint, a write to it raises, and the table keeps its
        # bits
        u = embed_captions(tiny_pair.text, [tiny_caption], None)[0]
        grads = table_row(gradient_table(tiny_pair.image, u[None], tiny_image.shape, (1.0,)))
        back_copy = grads[1.0].copy()
        g = grad_loss_wrt_image(PairLoss(tiny_pair.image, u, grads, None), tiny_image, 1.0)
        assert np.array_equal(g, scale_augment_adjoint(back_copy, (8, 8), 1.0))
        with pytest.raises(ValueError, match="read-only"):
            g += 1.0
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 1.0
        assert grads[1.0].tobytes() == back_copy.tobytes()

    def test_every_table_stack_is_read_only(self, tiny_pair, tiny_caption):
        u = embed_captions(tiny_pair.text, [tiny_caption, tiny_caption[::-1]], None)
        table = gradient_table(tiny_pair.image, u, (8, 8), DEFAULT_SCALES)
        assert sorted(table) == sorted(DEFAULT_SCALES)
        for stack in table.values():
            assert stack.shape == (2, 8, 8) and not stack.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stack[1] = 0.0

    @pytest.mark.parametrize("scale", DEFAULT_SCALES)
    def test_bad_image_rejected_at_every_scale(self, tiny_pair, tiny_image, tiny_caption, scale):
        u = embed_captions(tiny_pair.text, [tiny_caption], None)[0]
        grads = table_row(
            gradient_table(tiny_pair.image, u[None], tiny_image.shape, DEFAULT_SCALES)
        )
        bad = tiny_image.copy()
        bad[2, 3] = np.nan
        for x in (bad, np.ones((8, 9)), np.ones(64), np.ones((4, 16))):
            with pytest.raises(ValueError):
                grad_loss_wrt_image(PairLoss(tiny_pair.image, u, grads, None), x, scale)

    @pytest.mark.parametrize("scale", DEFAULT_SCALES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), bad=NON_FINITE)
    def test_one_non_finite_pixel_raises_at_every_scale(self, scale, data, bad):
        enc = tiny_base(5).image
        grads = table_row(gradient_table(enc, np.ones((1, 16)), (8, 8), DEFAULT_SCALES))
        x = planted(data, (8, 8), st.floats(allow_nan=False, allow_infinity=False), bad)
        with pytest.raises(ValueError, match=r"^image has non-finite pixels$"):
            grad_loss_wrt_image(PairLoss(enc, np.ones(16), grads, None), x, scale)

    @pytest.mark.parametrize("scale", DEFAULT_SCALES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), edge=EDGE_FINITE)
    def test_finite_pixels_pass_at_every_scale(self, scale, data, edge):
        enc = tiny_base(5).image
        grads = table_row(gradient_table(enc, np.ones((1, 16)), (8, 8), DEFAULT_SCALES))
        x = planted(data, (8, 8), st.floats(allow_nan=False, allow_infinity=False), edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = PairLoss(enc, np.ones(16), grads, None)
            assert grad_loss_wrt_image(loss, x, scale).tobytes() == grads[scale].tobytes()

    def test_finite_difference_requires_positive_step(self, tiny_image):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda z: 0.0, tiny_image, step=0.0)


class TestPairLoss:
    def test_text_direction_is_checked_where_the_loss_is_built(self, tiny_pair, tiny_caption):
        u = embed_captions(tiny_pair.text, [tiny_caption], None)
        grads = table_row(gradient_table(tiny_pair.image, u, (8, 8), (1.0,)))
        for bad in (u, u[0, :, None], np.float64(1.0)):
            with pytest.raises(ValueError, match=r"need a \(d,\) text direction"):
                PairLoss(tiny_pair.image, np.asarray(bad), grads, None)
        assert PairLoss(tiny_pair.image, u[0], grads, None).u.shape == (16,)


def tiny_base(seed: int, semantic_rank: int = 4):
    """The base pair of a dataset of 8x8 images, d = 16 and 64 tokens."""
    gen = GeneratorParams(semantic_rank=semantic_rank, table_jitter=0.05)
    return base_encoders(seed, DatasetDims(8, 8, 16, 64), gen)


def tiny_pool(base, n_models, rel_noise, text_noise, seed=11):
    """default_model_pool on a stand-in dataset holding only what the pool
    reads: the base pair, the seed and a semantic rank of 4."""
    ds = SimpleNamespace(base=base, seed=seed, gen=GeneratorParams(semantic_rank=4))
    return default_model_pool(ds, n_models, rel_noise, text_noise)


class TestBaseEncoders:
    def test_deterministic(self):
        a = tiny_base(3, semantic_rank=8)
        b = tiny_base(3, semantic_rank=8)
        np.testing.assert_array_equal(a.image.weight, b.image.weight)
        np.testing.assert_array_equal(a.text.table, b.text.table)

    def test_seed_changes_output(self):
        a = tiny_base(3, semantic_rank=8)
        b = tiny_base(4, semantic_rank=8)
        assert not np.array_equal(a.image.weight, b.image.weight)

    def test_image_rows_orthonormal(self, tiny_pair):
        w = tiny_pair.image.weight
        np.testing.assert_allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-10)

    def test_uniform_brightness_invisible(self, tiny_pair):
        # embedding of a constant image is zero: W annihilates the all-ones pixel vector
        np.testing.assert_allclose(
            tiny_pair.image.weight @ np.ones(64), 0.0, atol=1e-10
        )

    def test_token_rows_have_fixed_norm(self):
        pair = tiny_base(3)
        norms = np.linalg.norm(pair.text.table, axis=1)
        np.testing.assert_allclose(norms, np.sqrt(4.0), rtol=1e-12)

    def test_embed_dim_must_be_below_pixel_count(self):
        with pytest.raises(ValueError):
            base_encoders(
                0, DatasetDims(4, 4, 16, 64), GeneratorParams(semantic_rank=8, table_jitter=0.05)
            )


class TestSemanticProjector:
    def test_projector_properties(self, tiny_pair):
        p = build_projection(tiny_pair.text.table, rank=4)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        assert np.linalg.matrix_rank(p) == 4

    @pytest.mark.parametrize("dim", [15, 17])
    def test_wrong_dimension_rejected_by_consumers(
        self, tiny_pair, tiny_image, tiny_caption, rng, dim
    ):
        # the embeddings are 16-dimensional
        p = build_projection(rng.standard_normal((4, dim)))
        with pytest.raises(ValueError):
            embed_captions(tiny_pair.text, [tiny_caption], p)[0]
        with pytest.raises(ValueError):
            embed_images(tiny_pair.image, tiny_image[None], p)

    def test_invalid_dims(self, tiny_pair):
        with pytest.raises(ValueError):
            build_projection(tiny_pair.text.table, rank=0)
        with pytest.raises(ValueError):
            build_projection(tiny_pair.text.table, rank=17)


class TestModelPool:
    def test_pool_size_and_ids(self, tiny_pair):
        pool = tiny_pool(tiny_pair, 3, 0.5, 0.5)
        assert [m.model_id for m in pool] == ["model0", "model1", "model2"]

    def test_deterministic_and_distinct(self, tiny_pair):
        a = tiny_pool(tiny_pair, 2, 0.5, 0.5)
        b = tiny_pool(tiny_pair, 2, 0.5, 0.5)
        np.testing.assert_array_equal(a[0].image.weight, b[0].image.weight)
        assert not np.array_equal(a[0].image.weight, a[1].image.weight)

    def test_noise_confined_outside_semantic_subspace(self, tiny_pair):
        pool = tiny_pool(tiny_pair, 2, 1.0, 1.0)
        p_sem = build_projection(tiny_pair.text.table, rank=4)
        for m in pool:
            t_noise = m.text.table - tiny_pair.text.table
            np.testing.assert_allclose(t_noise @ p_sem, 0.0, atol=1e-10)
            w_noise = m.image.weight - tiny_pair.image.weight
            np.testing.assert_allclose(p_sem @ w_noise, 0.0, atol=1e-10)

    def test_pool_models_ignore_uniform_brightness(self, tiny_pair):
        pool = tiny_pool(tiny_pair, 2, 1.0, 1.0)
        for m in pool:
            np.testing.assert_allclose(m.image.weight @ np.ones(64), 0.0, atol=1e-9)

    def test_text_noise_override(self, tiny_pair):
        quiet = tiny_pool(tiny_pair, 1, 0.5, 0.0)[0]
        np.testing.assert_array_equal(quiet.text.table, tiny_pair.text.table)
        assert not np.array_equal(quiet.image.weight, tiny_pair.image.weight)

    def test_invalid_count(self, tiny_pair):
        with pytest.raises(ValueError):
            tiny_pool(tiny_pair, 0, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["rel_noise", "text_noise"])
    def test_invalid_noise_names_the_field(self, tiny_pair, field, bad):
        # a negative scale would negate the noise and a NaN one poison the
        # weights; either is rejected by name before any model is built
        noise = {"rel_noise": 0.5, "text_noise": 0.5, field: bad}
        with pytest.raises(ValueError, match=field):
            tiny_pool(tiny_pair, 2, **noise)

    def test_seeds_past_48_bits_stay_distinct(self, tiny_pair):
        # the encoders and the pool take the dataset's seed as it is, so
        # seeds 2**48 apart build different models, as they build different
        # datasets
        bases = [tiny_base(s) for s in (5, 5 + 2**48)]
        assert not np.array_equal(bases[0].image.weight, bases[1].image.weight)
        assert not np.array_equal(bases[0].text.table, bases[1].text.table)
        pools = [tiny_pool(tiny_pair, 1, 0.5, 0.5, seed=s)[0] for s in (5, 5 + 2**48)]
        assert not np.array_equal(pools[0].image.weight, pools[1].image.weight)
        assert not np.array_equal(pools[0].text.table, pools[1].text.table)


class TestPersistence:
    def test_round_trip(self, tiny_pair, tmp_path):
        # repr-precision matrix files round-trip float64 values exactly
        for m in (tiny_pair.image.weight, tiny_pair.text.table):
            matio.save_matrix(m, tmp_path / "m.txt")
            np.testing.assert_array_equal(matio.load_matrix(tmp_path / "m.txt"), m)
