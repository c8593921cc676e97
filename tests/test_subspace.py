import numpy as np
import pytest

from aetlab.core import similarity
from aetlab.encoders import encode_image, encode_text
from aetlab.subspace import DegenerateCorpusError, build_projection, sample_corpus
from oracles import pair_loss


class TestSampleCorpus:
    def _pool(self, m):
        return [(i, i + 1, i + 2) for i in range(m)]

    def test_size_is_ceiling(self):
        corpus = sample_corpus(self._pool(10), 0.40, seed=1)
        assert len(corpus) == 4
        corpus = sample_corpus(self._pool(7), 0.40, seed=1)
        assert len(corpus) == 3  # ceil(2.8)

    def test_subset_of_pool_without_replacement(self):
        pool = self._pool(12)
        corpus = sample_corpus(pool, 0.5, seed=2)
        assert len(set(corpus)) == len(corpus)
        assert all(t in pool for t in corpus)

    def test_deterministic(self):
        pool = self._pool(20)
        a = sample_corpus(pool, 0.4, seed=3)
        b = sample_corpus(pool, 0.4, seed=3)
        assert a == b

    def test_full_proportion_takes_everything(self):
        pool = self._pool(5)
        corpus = sample_corpus(pool, 1.0, seed=0)
        assert sorted(corpus) == sorted(tuple(t) for t in pool)

    @pytest.mark.parametrize("prop", [0.0, -0.1, 1.1])
    def test_invalid_proportion(self, prop):
        with pytest.raises(ValueError):
            sample_corpus(self._pool(5), prop, seed=0)

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            sample_corpus([], 0.5, seed=0)


class TestBuildProjection:
    def test_projector_symmetric_idempotent_fixes_corpus(self, rng):
        emb = rng.standard_normal((6, 10))
        p = build_projection(emb)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        for row in emb:
            np.testing.assert_allclose(p @ row, row, atol=1e-9)

    def test_rank_of_low_rank_corpus(self, rng):
        base = rng.standard_normal((2, 8))
        emb = rng.standard_normal((5, 2)) @ base  # rank 2 by construction
        p = build_projection(emb)
        assert p.shape == (8, 8)
        assert np.trace(p) == pytest.approx(2.0, abs=1e-12)  # the rank of a projector
        # a direction orthogonal to the span is annihilated
        q, _ = np.linalg.qr(np.vstack([base, rng.standard_normal((6, 8))]).T)
        ortho = q[:, 2]
        np.testing.assert_allclose(p @ ortho, 0.0, atol=1e-9)

    def test_basis_rows_orthonormal(self, rng):
        # B^T B has orthonormal-row B exactly when its eigenvalues are 0 or 1,
        # with one 1 per basis row
        eig = np.linalg.eigvalsh(build_projection(rng.standard_normal((4, 9))))
        assert np.all(np.minimum(np.abs(eig), np.abs(eig - 1.0)) <= 1e-10)
        assert np.count_nonzero(eig > 0.5) == 4

    def test_single_embedding_rank_one(self):
        p = build_projection(np.array([[1.0, 2.0, 2.0]]))
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
        v = np.array([1.0, 2.0, 2.0])
        np.testing.assert_allclose(p @ v, v, atol=1e-12)

    def test_all_zero_corpus_rejected(self):
        with pytest.raises(DegenerateCorpusError):
            build_projection(np.zeros((3, 5)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            build_projection(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_raises_with_the_message(self, bad):
        emb = np.ones((3, 4))
        emb[2, 1] = bad
        with pytest.raises(ValueError, match="^corpus embeddings must be a nonempty finite matrix$"):
            build_projection(emb)

    def test_finite_entries_pass_when_their_squares_overflow(self):
        p = build_projection(np.array([[1e160, 0.0], [-1e160, 0.0]]))
        np.testing.assert_allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_project_dimension_mismatch(self, rng):
        p = build_projection(rng.standard_normal((3, 6)))
        with pytest.raises(ValueError):
            p @ np.ones(5)


class TestProjectedLoss:
    def test_matches_manual_projection(self, rng, tiny_pair, tiny_image, tiny_caption):
        p = build_projection(rng.standard_normal((3, 16)))
        img = encode_image(tiny_pair.image, tiny_image)
        txt = encode_text(tiny_pair.text, tiny_caption)
        expect = similarity((p @ img)[None], p @ txt)[0]
        assert pair_loss(tiny_pair, tiny_image, tiny_caption, p) == pytest.approx(expect)

    def test_projection_only_needed_on_one_side(self, rng):
        # P symmetric idempotent: <Pa, Pb> = <a, Pb>
        p = build_projection(rng.standard_normal((4, 8)))
        img = rng.standard_normal(8)
        txt = rng.standard_normal(8)
        assert similarity((p @ img)[None], p @ txt)[0] == pytest.approx(
            similarity(img[None], p @ txt)[0]
        )
