import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aetlab.core import AttackConfig, matvec_rows, similarity
from aetlab.encoders import (
    BagOfWordsTextEncoder,
    EncoderPair,
    LinearImageEncoder,
    embed_captions,
    encode_image,
    encode_text,
    make_base_encoders,
)
from aetlab.harness import DatasetDims, default_model_pool, synth_dataset
from aetlab.subspace import build_projection
from aetlab.text_attack import (
    build_word_candidates,
    run_text_attack,
    score_text_candidate,
    word_neighbours,
)
from oracles import (
    caption_rows,
    enumerate_text_candidates,
    image_rows,
    pair_similarity,
    run_text_attack_per_candidate,
    select_adversarial_text,
)


def hamming(a, b):
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def score(txt, img_embs, cfg):
    """score_text_candidate of one caption embedding txt against the image
    rows img_embs, with the similarities of one paired call, txt repeated
    once per image row: each value is the 1-D product that run_text_attack's
    shared-text calls take."""
    rows = np.repeat(np.asarray(txt)[None], len(img_embs), axis=0)
    return score_text_candidate(similarity(img_embs, rows), cfg)


class TestWordCandidates:
    def test_nearest_by_dot_product(self, tiny_pair, tiny_caption):
        cands = build_word_candidates(tiny_caption, word_neighbours(tiny_pair.text, 10))
        table = tiny_pair.text.table
        for pos, tok in enumerate(tiny_caption):
            rows = cands[1 + 10 * pos : 1 + 10 * (pos + 1)]
            expect = [
                int(i)
                for i in np.argsort(-(table @ table[tok]), kind="stable")
                if int(i) != tok
            ][:10]
            assert rows[:, pos].tolist() == expect
            assert (np.delete(rows, pos, axis=1) == np.delete(tiny_caption, pos)).all()

    def test_original_token_excluded(self, tiny_pair, tiny_caption):
        cands = build_word_candidates(tiny_caption, word_neighbours(tiny_pair.text, 63))
        assert cands.shape == (1 + 63 * len(tiny_caption), len(tiny_caption))
        assert ((cands[1:] != tiny_caption).sum(axis=1) == 1).all()

    def test_zero_sized_list(self, tiny_pair, tiny_caption):
        cands = build_word_candidates(tiny_caption, word_neighbours(tiny_pair.text, 0))
        assert cands.tolist() == [list(tiny_caption)]

    def test_negative_size_rejected(self, tiny_pair, tiny_caption):
        with pytest.raises(ValueError):
            word_neighbours(tiny_pair.text, -1)

    @pytest.mark.parametrize("size", [0, 3, 10, 39, 40, 75])
    def test_tied_scores_match_list_comprehension(self, rng, size):
        # 40 tokens that share 4 distinct rows: every score ties with nine
        # others, the original token's own row included
        table = rng.standard_normal((4, 6))[rng.integers(0, 4, 40)]
        enc = BagOfWordsTextEncoder(table)
        caption = (0, 7, 7, 39, 21)
        near = word_neighbours(enc, size)
        assert near.shape == (40, min(size, 39))
        for v in range(40):
            assert [(t,) for t in near[v].tolist()] == enumerate_text_candidates((v,), enc, size)[1:]
        cands = build_word_candidates(caption, near)
        assert list(map(tuple, cands.tolist())) == enumerate_text_candidates(caption, enc, size)

    @pytest.mark.parametrize("size", [0, 1, 10, 63, 64, 200])
    def test_table_rows_match_list_comprehension(self, tiny_pair, size):
        # every token's row, not only the caption's, is its own substitute
        # list, for k = 0, k = V - 1 and k past it
        near = word_neighbours(tiny_pair.text, size)
        assert near.dtype == np.int64 and near.shape == (64, min(size, 63))
        for v in range(64):
            expect = enumerate_text_candidates((v,), tiny_pair.text, size)[1:]
            assert [(t,) for t in near[v].tolist()] == expect

    @pytest.mark.parametrize("size", [0, 10, 63, 64, 255])
    def test_dataset_encoders_match_per_token_order(self, size):
        # the base pair and two pool models of a 200-token dataset: the
        # row blocks end inside the table, and every row keeps the bits of
        # the per-token product
        ds = synth_dataset(18, 4, dims=DatasetDims(embed_dim=32, vocab_size=200))
        for enc in [ds.base, *default_model_pool(ds, n_models=2)]:
            near = word_neighbours(enc.text, size)
            assert near.shape == (200, min(size, 199))
            for v in range(200):
                expect = enumerate_text_candidates((v,), enc.text, size)[1:]
                assert [(t,) for t in near[v].tolist()] == expect


# 40 tokens, 6-dim embeddings: small enough that k reaches V - 1
_STACK_PAIR = make_base_encoders(4, 4, 6, 40, seed=3, semantic_rank=3, table_jitter=0.1)
_STACK_NEAR = {size: word_neighbours(_STACK_PAIR.text, size) for size in range(41)}


class TestCandidateStack:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(0, 40),
        use_projector=st.booleans(),
        captions=st.integers(1, 5).flatmap(
            lambda length: st.lists(
                st.lists(st.integers(0, 39), min_size=length, max_size=length),
                min_size=1, max_size=6,
            )
        ),
    )
    def test_stack_equals_one_caption_calls(self, size, use_projector, captions):
        # the (n, L) stack that attack_pairs builds per block of pairs gives
        # each caption the token matrix and embedding rows of its own call,
        # and the matrix is the list-built enumeration's
        near = _STACK_NEAR[size]
        projector = build_projection(_STACK_PAIR.text.table[:3]) if use_projector else None
        cands = build_word_candidates(captions, near)
        n, length = len(captions), len(captions[0])
        assert cands.shape == (n, 1 + length * min(size, 39), length)
        embs = embed_captions(_STACK_PAIR.text, cands.reshape(-1, length), projector)
        embs = embs.reshape(*cands.shape[:2], -1)
        for caption, rows, emb in zip(captions, cands, embs):
            own = build_word_candidates(caption, near)
            assert np.array_equal(rows, own)
            assert np.array_equal(emb, embed_captions(_STACK_PAIR.text, own, projector))
            assert list(map(tuple, rows.tolist())) == (
                enumerate_text_candidates(caption, _STACK_PAIR.text, size)
            )


class TestEnumerateCandidates:
    def test_original_first_and_counts(self, tiny_pair, tiny_caption):
        cands = build_word_candidates(tiny_caption, word_neighbours(tiny_pair.text, 5))
        assert tuple(cands[0].tolist()) == tiny_caption
        assert cands.shape == (1 + 5 * len(tiny_caption), len(tiny_caption))

    def test_every_candidate_within_budget(self, tiny_pair, tiny_caption):
        for cand in build_word_candidates(tiny_caption, word_neighbours(tiny_pair.text, 5)):
            assert hamming(cand, tiny_caption) <= 1


class TestScoring:
    def test_weighted_mismatch_oracle(self, tiny_pair, tiny_image, tiny_caption, rng):
        cfg = AttackConfig()
        clean = encode_image(tiny_pair.image, tiny_image)
        prev = clean + 0.1 * rng.standard_normal(clean.shape)
        cur = clean - 0.1 * rng.standard_normal(clean.shape)
        txt = encode_text(tiny_pair.text, tiny_caption)
        got = score(txt, np.stack([clean, prev, cur]), cfg)
        assert type(got) is float
        expect = -(
            0.6 * pair_similarity(clean, txt)
            + 0.2 * pair_similarity(prev, txt)
            + 0.2 * pair_similarity(cur, txt)
        )
        assert got == pytest.approx(expect)

    def test_projected_scoring(self, tiny_pair, tiny_image, tiny_caption, rng):
        cfg = AttackConfig()
        p = build_projection(rng.standard_normal((4, tiny_pair.image.embed_dim)))
        clean = p @ encode_image(tiny_pair.image, tiny_image)
        got = score(
            p @ encode_text(tiny_pair.text, tiny_caption), np.stack([clean, clean, clean]), cfg
        )
        txt = p @ encode_text(tiny_pair.text, tiny_caption)
        expect = -pair_similarity(clean, txt)
        assert got == pytest.approx(expect)

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_preprojected_images_equal_projecting_everything(
        self, tiny_pair, tiny_image, tiny_caption, rng, use_projector
    ):
        # projecting all four vectors per candidate and projecting the three
        # image embeddings once beforehand must give the same bits
        cfg = AttackConfig(kappa=0.5, mu=0.3, nu=0.2)
        projector = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        imgs = [
            encode_image(tiny_pair.image, np.clip(tiny_image + 0.03 * rng.standard_normal((8, 8)), 0, 1))
            for _ in range(3)
        ]
        proj = (lambda v: v) if projector is None else (lambda v: projector @ v)
        pre = np.stack([proj(e) for e in imgs])
        for cand in build_word_candidates(tiny_caption, word_neighbours(tiny_pair.text, 5)):
            txt = proj(encode_text(tiny_pair.text, cand))
            expect = -(
                cfg.kappa * pair_similarity(proj(imgs[0]), txt)
                + cfg.mu * pair_similarity(proj(imgs[1]), txt)
                + cfg.nu * pair_similarity(proj(imgs[2]), txt)
            )
            got = score(proj(encode_text(tiny_pair.text, cand)), pre, cfg)
            assert got == expect

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_mismatched_embedding_shapes_rejected(
        self, tiny_pair, tiny_image, tiny_caption, rng, use_projector
    ):
        cfg = AttackConfig()
        projector = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        txt = encode_text(tiny_pair.text, tiny_caption)
        emb = encode_image(tiny_pair.image, tiny_image)
        short, row = emb[:-1], emb[None]
        for embs in (
            np.stack([short] * 3),  # rows shorter than the caption embedding
            np.stack([emb] * 2),  # two rows, or four
            np.stack([emb] * 4),
            emb,  # one row, not a (3, d) matrix
            np.stack([row] * 3),  # 2-D rows
        ):
            with pytest.raises(ValueError):
                score(txt if projector is None else projector @ txt, embs, cfg)
        # consistent on every side, but not what the projector maps, or 2-D
        if projector is not None:
            bad_txt, bad_emb = np.append(txt, 1.0), np.append(emb, 1.0)
        else:
            bad_txt, bad_emb = txt[None], emb[None]
        with pytest.raises(ValueError):
            score(
                bad_txt if projector is None else matvec_rows(projector, bad_txt[None])[0],
                np.stack([bad_emb] * 3),
                cfg,
            )
        # three caption rows would pair with the three image rows
        with pytest.raises(ValueError):
            score(np.stack([txt] * 3), np.stack([emb] * 3), cfg)

    def test_weights_follow_clean_prev_final_order(self):
        # each weight applies to its own similarity, and only the three
        # similarities of one candidate are accepted
        cfg = AttackConfig(kappa=0.5, mu=0.3, nu=0.2)
        assert score_text_candidate([1.0, 0.0, 0.0], cfg) == -0.5
        assert score_text_candidate([0.0, 1.0, 0.0], cfg) == -0.3
        assert score_text_candidate([0.0, 0.0, 1.0], cfg) == -0.2
        for sims in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError):
                score_text_candidate(sims, cfg)


class TestSelection:
    def test_argmax_selected(self):
        chosen = select_adversarial_text(
            [(1, 2), (3, 4), (5, 6)], scorer=lambda c: float(c[0])
        )
        assert chosen == (5, 6)

    def test_tie_prefers_original(self):
        chosen = select_adversarial_text(
            [(1, 2), (3, 4)], scorer=lambda c: 0.0, original=(3, 4)
        )
        assert chosen == (3, 4)

    def test_tie_without_original_takes_lowest_index(self):
        chosen = select_adversarial_text([(1, 2), (3, 4)], scorer=lambda c: 0.0)
        assert chosen == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_adversarial_text([], scorer=lambda c: 0.0)


class TestRunTextAttack:
    def test_budget_and_change_flag(self, tiny_pair, tiny_image, tiny_caption, rng):
        cfg = AttackConfig()
        prev = np.clip(tiny_image + 0.02 * rng.standard_normal(tiny_image.shape), 0, 1)
        cur = np.clip(tiny_image - 0.02 * rng.standard_normal(tiny_image.shape), 0, 1)
        near = word_neighbours(tiny_pair.text, cfg.word_list_size)
        embs = image_rows(tiny_pair, None, tiny_image, prev, cur)
        rows = caption_rows(tiny_caption, tiny_pair, None, near)
        chosen, changed = run_text_attack(*rows, *embs, cfg)
        assert hamming(chosen, tiny_caption) <= 1
        assert changed == (chosen != tiny_caption)

    def test_chosen_caption_scores_at_least_original(
        self, tiny_pair, tiny_image, tiny_caption
    ):
        cfg = AttackConfig()
        near = word_neighbours(tiny_pair.text, cfg.word_list_size)
        chosen, _ = run_text_attack(
            *caption_rows(tiny_caption, tiny_pair, None, near),
            *image_rows(tiny_pair, None, tiny_image, tiny_image, tiny_image), cfg,
        )
        clean = encode_image(tiny_pair.image, tiny_image)
        embs = np.stack([clean, clean, clean])
        scored = lambda c: score(encode_text(tiny_pair.text, c), embs, cfg)
        assert scored(chosen) >= scored(tiny_caption)

    def test_deterministic(self, tiny_pair, tiny_image, tiny_caption):
        cfg = AttackConfig()
        near = word_neighbours(tiny_pair.text, cfg.word_list_size)
        a, _ = run_text_attack(
            *caption_rows(tiny_caption, tiny_pair, None, near),
            *image_rows(tiny_pair, None, tiny_image, tiny_image, tiny_image), cfg,
        )
        b, _ = run_text_attack(
            *caption_rows(tiny_caption, tiny_pair, None, near),
            *image_rows(tiny_pair, None, tiny_image, tiny_image, tiny_image), cfg,
        )
        assert a == b

    def test_projector_of_another_dimension_rejected(self, tiny_pair, tiny_image, tiny_caption):
        # caption rows in the encoders' 16 dimensions, image rows projected
        # into 15 or 17
        cfg = AttackConfig()
        near = word_neighbours(tiny_pair.text, cfg.word_list_size)
        for projector in (np.eye(15, 16), np.eye(17, 16)):
            with pytest.raises(ValueError):
                run_text_attack(
                    *caption_rows(tiny_caption, tiny_pair, None, near),
                    *image_rows(tiny_pair, projector, tiny_image, tiny_image, tiny_image), cfg,
                )

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_equals_per_candidate_oracle(self, tiny_pair, tiny_image, tiny_caption, rng, use_projector):
        # one token gather and one similarity call for all candidates pick
        # the caption that one encode_text call per candidate picks; the
        # asymmetric weights tell the clean, previous and final images apart
        projector = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        near = word_neighbours(tiny_pair.text, 15)
        for kappa, mu, nu in ((0.6, 0.2, 0.2), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0), (0.2, 0.3, 0.5)):
            cfg = AttackConfig(word_list_size=15, kappa=kappa, mu=mu, nu=nu)
            for _ in range(5):
                prev, cur = (
                    np.clip(tiny_image + 0.05 * rng.standard_normal((8, 8)), 0, 1) for _ in range(2)
                )
                embs = image_rows(tiny_pair, projector, tiny_image, prev, cur)
                rows = caption_rows(tiny_caption, tiny_pair, projector, near)
                assert run_text_attack(*rows, *embs, cfg) == (
                    run_text_attack_per_candidate(
                        tiny_caption, tiny_image, prev, cur, tiny_pair, projector, cfg
                    )
                )


def _tied_pair(n_rows, vocab, rng):
    """Encoders whose vocab tokens share n_rows distinct embedding rows
    (token t has row t % n_rows), so substitutions tie exactly."""
    rows = rng.standard_normal((n_rows, 6))
    return EncoderPair(
        LinearImageEncoder(rng.standard_normal((6, 64))),
        BagOfWordsTextEncoder(rows[np.arange(vocab) % n_rows]),
    )


class TestCaptionTies:
    def test_tie_prefers_original(self, tiny_image, rng):
        # every token has the same row: all 1 + 4 x 11 candidates tie
        pair = _tied_pair(1, 12, rng)
        cfg = AttackConfig(word_list_size=11)
        cur = np.clip(tiny_image + 0.05 * rng.standard_normal((8, 8)), 0, 1)
        caption = (4, 9, 0, 7)
        near = word_neighbours(pair.text, cfg.word_list_size)
        embs = image_rows(pair, None, tiny_image, tiny_image, cur)
        rows = caption_rows(caption, pair, None, near)
        assert run_text_attack(*rows, *embs, cfg) == (caption, False)

    def test_tie_without_original_takes_lowest_index(self, tiny_image, rng):
        # 12 tokens on 3 rows: each substitution ties with the three other
        # tokens of its row at that position
        cfg = AttackConfig(word_list_size=11)
        caption = (0, 1, 2, 3)
        exercised = 0
        for _ in range(10):
            pair = _tied_pair(3, 12, rng)
            cur = np.clip(tiny_image + 0.05 * rng.standard_normal((8, 8)), 0, 1)
            near = word_neighbours(pair.text, cfg.word_list_size)
            img_rows = image_rows(pair, None, tiny_image, tiny_image, cur)
            rows = caption_rows(caption, pair, None, near)
            chosen, changed = run_text_attack(*rows, *img_rows, cfg)
            embs = np.stack([encode_image(pair.image, x) for x in (tiny_image, tiny_image, cur)])
            cands = enumerate_text_candidates(caption, pair.text, 11)
            scores = [score(encode_text(pair.text, c), embs, cfg) for c in cands]
            winners = [i for i, v in enumerate(scores) if v == max(scores)]
            assert chosen == cands[winners[0]]
            assert changed == (winners[0] != 0)
            exercised += winners[0] != 0 and len(winners) > 1
        assert exercised > 0
