import numpy as np
import pytest

from aetlab import matio
from aetlab.core import scale_augment, similarity_loss
from aetlab.encoders import (
    BagOfWordsTextEncoder,
    LinearImageEncoder,
    back_project,
    embed_captions,
    embed_pairs,
    encode_image,
    encode_text,
    grad_loss_wrt_image,
    image_loss,
    make_base_encoders,
    make_model_pool,
    text_direction,
)
from aetlab.subspace import build_projection
from oracles import finite_difference_grad, mismatch_grad_per_call, pair_loss


class TestEncoding:
    def test_encode_image_is_matrix_vector(self, tiny_pair, tiny_image):
        emb = encode_image(tiny_pair.image, tiny_image)
        np.testing.assert_allclose(emb, tiny_pair.image.weight @ tiny_image.ravel())

    def test_encode_image_pixel_count_mismatch(self, tiny_pair):
        with pytest.raises(ValueError):
            encode_image(tiny_pair.image, np.ones((3, 3)))

    def test_encode_text_is_row_mean(self, tiny_pair, tiny_caption):
        emb = encode_text(tiny_pair.text, tiny_caption)
        rows = tiny_pair.text.table[list(tiny_caption)]
        np.testing.assert_allclose(emb, rows.mean(axis=0))

    def test_encode_text_rejects_out_of_vocab(self, tiny_pair):
        with pytest.raises(ValueError):
            encode_text(tiny_pair.text, (0, 64))
        with pytest.raises(ValueError):
            encode_text(tiny_pair.text, ())

    @pytest.mark.parametrize("length", [1, 4, 12])
    def test_embed_pairs_rows_are_per_pair_encodings(self, tiny_pair, rng, length):
        images = [np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0.0, 1.0) for _ in range(6)]
        captions = [tuple(rng.integers(0, 64, length).tolist()) for _ in range(6)]
        img, txt = embed_pairs(tiny_pair, images, captions)
        np.testing.assert_allclose(
            img, np.stack([encode_image(tiny_pair.image, x) for x in images]), rtol=0, atol=1e-12
        )
        assert np.array_equal(txt, np.stack([encode_text(tiny_pair.text, c) for c in captions]))

    def test_embed_captions_rejects_bad_token_matrices(self, tiny_pair):
        for bad in ([(0, 64)], [(0, -1)], [()], [], [0, 1]):
            with pytest.raises(ValueError):
                embed_captions(tiny_pair.text, bad)

    def test_pair_loss_matches_similarity(self, tiny_pair, tiny_image, tiny_caption):
        val = pair_loss(tiny_pair, tiny_image, tiny_caption)
        expect = similarity_loss(
            encode_image(tiny_pair.image, tiny_image),
            encode_text(tiny_pair.text, tiny_caption),
        )
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
            img, txt = projector.project(img), projector.project(txt)
        u = text_direction(tiny_pair.text, tiny_caption, projector)
        assert image_loss(tiny_pair.image, tiny_image, u, projector, scale) == similarity_loss(img, txt)

    def test_encoder_validation(self):
        with pytest.raises(ValueError):
            LinearImageEncoder(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            BagOfWordsTextEncoder(np.full((3, 3), np.nan))


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
        u = text_direction(tiny_pair.text, tiny_caption, projector)
        back = back_project(tiny_pair.image, u)
        analytic = grad_loss_wrt_image(tiny_pair.image, tiny_image, back, scale)
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
        u = text_direction(tiny_pair.text, tiny_caption, projector)
        back = back_project(tiny_pair.image, u)
        assert np.array_equal(
            -grad_loss_wrt_image(tiny_pair.image, tiny_image, back, scale),
            mismatch_grad_per_call(tiny_image, u, tiny_pair.image, scale),
        )

    def test_finite_difference_requires_positive_step(self, tiny_image):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda z: 0.0, tiny_image, step=0.0)


class TestBaseEncoders:
    def test_deterministic(self):
        a = make_base_encoders(8, 8, 16, 64, seed=3)
        b = make_base_encoders(8, 8, 16, 64, seed=3)
        np.testing.assert_array_equal(a.image.weight, b.image.weight)
        np.testing.assert_array_equal(a.text.table, b.text.table)

    def test_seed_changes_output(self):
        a = make_base_encoders(8, 8, 16, 64, seed=3)
        b = make_base_encoders(8, 8, 16, 64, seed=4)
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
        pair = make_base_encoders(8, 8, 16, 64, seed=3, semantic_rank=4)
        norms = np.linalg.norm(pair.text.table, axis=1)
        np.testing.assert_allclose(norms, np.sqrt(4.0), rtol=1e-12)

    def test_embed_dim_must_be_below_pixel_count(self):
        with pytest.raises(ValueError):
            make_base_encoders(4, 4, 16, 64, seed=0)


class TestSemanticProjector:
    def test_projector_properties(self, tiny_pair):
        p = build_projection(tiny_pair.text.table, rank=4).projector
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        assert np.linalg.matrix_rank(p) == 4

    def test_invalid_dims(self, tiny_pair):
        with pytest.raises(ValueError):
            build_projection(tiny_pair.text.table, rank=0)
        with pytest.raises(ValueError):
            build_projection(tiny_pair.text.table, rank=17)


class TestModelPool:
    def test_pool_size_and_ids(self, tiny_pair):
        pool = make_model_pool(tiny_pair, 3, 0.5, seed=11)
        assert [m.model_id for m in pool] == ["model0", "model1", "model2"]

    def test_deterministic_and_distinct(self, tiny_pair):
        a = make_model_pool(tiny_pair, 2, 0.5, seed=11)
        b = make_model_pool(tiny_pair, 2, 0.5, seed=11)
        np.testing.assert_array_equal(a[0].image.weight, b[0].image.weight)
        assert not np.array_equal(a[0].image.weight, a[1].image.weight)

    def test_noise_confined_outside_semantic_subspace(self, tiny_pair):
        pool = make_model_pool(tiny_pair, 2, 1.0, seed=11, semantic_dims=4)
        p_sem = build_projection(tiny_pair.text.table, rank=4).projector
        for m in pool:
            t_noise = m.text.table - tiny_pair.text.table
            np.testing.assert_allclose(t_noise @ p_sem, 0.0, atol=1e-10)
            w_noise = m.image.weight - tiny_pair.image.weight
            np.testing.assert_allclose(p_sem @ w_noise, 0.0, atol=1e-10)

    def test_pool_models_ignore_uniform_brightness(self, tiny_pair):
        pool = make_model_pool(tiny_pair, 2, 1.0, seed=11, semantic_dims=4)
        for m in pool:
            np.testing.assert_allclose(m.image.weight @ np.ones(64), 0.0, atol=1e-9)

    def test_text_noise_override(self, tiny_pair):
        quiet = make_model_pool(tiny_pair, 1, 0.5, seed=11, text_noise=0.0)[0]
        np.testing.assert_array_equal(quiet.text.table, tiny_pair.text.table)
        assert not np.array_equal(quiet.image.weight, tiny_pair.image.weight)

    def test_invalid_count(self, tiny_pair):
        with pytest.raises(ValueError):
            make_model_pool(tiny_pair, 0, 0.5, seed=11)


class TestPersistence:
    def test_round_trip(self, tiny_pair, tmp_path):
        # repr-precision matrix files round-trip float64 values exactly
        for m in (tiny_pair.image.weight, tiny_pair.text.table):
            matio.save_matrix(m, tmp_path / "m.txt")
            np.testing.assert_array_equal(matio.load_matrix(tmp_path / "m.txt"), m)
