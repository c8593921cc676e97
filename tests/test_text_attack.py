import numpy as np
import pytest

from aetlab.core import AttackConfig, similarity_loss
from aetlab.encoders import (
    BagOfWordsTextEncoder,
    EncoderPair,
    LinearImageEncoder,
    encode_image,
    encode_text,
)
from aetlab.subspace import build_projection
from aetlab.text_attack import (
    UnsupportedBudgetError,
    build_word_candidates,
    enumerate_text_candidates,
    run_text_attack,
    score_text_candidate,
)
from oracles import run_text_attack_per_candidate, select_adversarial_text


def hamming(a, b):
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


class TestWordCandidates:
    def test_nearest_by_dot_product(self, tiny_pair, tiny_caption):
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=10)
        table = tiny_pair.text.table
        for tok, cands in zip(tiny_caption, wcl.per_position):
            scores = table @ table[tok]
            expect = [
                int(i)
                for i in np.argsort(-scores, kind="stable")
                if int(i) != tok
            ][:10]
            assert list(cands) == expect

    def test_original_token_excluded(self, tiny_pair, tiny_caption):
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=63)
        for tok, cands in zip(tiny_caption, wcl.per_position):
            assert tok not in cands

    def test_zero_sized_list(self, tiny_pair, tiny_caption):
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=0)
        assert all(len(c) == 0 for c in wcl.per_position)

    def test_negative_size_rejected(self, tiny_pair, tiny_caption):
        with pytest.raises(ValueError):
            build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=-1)

    @pytest.mark.parametrize("size", [0, 3, 10, 39])
    def test_tied_scores_match_list_comprehension(self, rng, size):
        # 40 tokens that share 4 distinct rows: every score ties with nine
        # others, the original token's own row included
        table = rng.standard_normal((4, 6))[rng.integers(0, 4, 40)]
        enc = BagOfWordsTextEncoder(table)
        caption = (0, 7, 7, 39, 21)
        wcl = build_word_candidates(caption, enc, word_list_size=size)
        for tok, cands in zip(caption, wcl.per_position):
            order = np.argsort(-(table @ table[tok]), kind="stable")
            assert cands == tuple([int(i) for i in order if int(i) != tok][:size])


class TestEnumerateCandidates:
    def test_original_first_and_counts(self, tiny_pair, tiny_caption):
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=5)
        cands = enumerate_text_candidates(tiny_caption, wcl)
        assert cands[0] == tiny_caption
        assert len(cands) == 1 + 5 * len(tiny_caption)

    def test_every_candidate_within_budget(self, tiny_pair, tiny_caption):
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=5)
        for cand in enumerate_text_candidates(tiny_caption, wcl):
            assert hamming(cand, tiny_caption) <= 1

    def test_larger_budget_unsupported(self, tiny_pair, tiny_caption):
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=5)
        with pytest.raises(UnsupportedBudgetError):
            enumerate_text_candidates(tiny_caption, wcl, eps_t=2)


class TestScoring:
    def test_weighted_mismatch_oracle(self, tiny_pair, tiny_image, tiny_caption, rng):
        cfg = AttackConfig()
        clean = encode_image(tiny_pair.image, tiny_image)
        prev = clean + 0.1 * rng.standard_normal(clean.shape)
        cur = clean - 0.1 * rng.standard_normal(clean.shape)
        txt = encode_text(tiny_pair.text, tiny_caption)
        got = score_text_candidate(txt, clean, prev, cur, None, cfg)
        expect = -(
            0.6 * similarity_loss(clean, txt)
            + 0.2 * similarity_loss(prev, txt)
            + 0.2 * similarity_loss(cur, txt)
        )
        assert got == pytest.approx(expect)

    def test_projected_scoring(self, tiny_pair, tiny_image, tiny_caption, rng):
        cfg = AttackConfig()
        pb = build_projection(rng.standard_normal((4, tiny_pair.image.embed_dim)))
        clean = pb.project(encode_image(tiny_pair.image, tiny_image))
        got = score_text_candidate(encode_text(tiny_pair.text, tiny_caption), clean, clean, clean, pb, cfg)
        txt = pb.project(encode_text(tiny_pair.text, tiny_caption))
        expect = -similarity_loss(clean, txt)
        assert got == pytest.approx(expect)

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_preprojected_images_equal_projecting_everything(
        self, tiny_pair, tiny_image, tiny_caption, rng, use_projector
    ):
        # projecting all four vectors per candidate and projecting the three
        # image embeddings once beforehand must give the same bits
        cfg = AttackConfig(kappa=0.5, mu=0.3, nu=0.2)
        pb = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        imgs = [
            encode_image(tiny_pair.image, np.clip(tiny_image + 0.03 * rng.standard_normal((8, 8)), 0, 1))
            for _ in range(3)
        ]
        proj = (lambda v: v) if pb is None else pb.project
        pre = [proj(e) for e in imgs]
        wcl = build_word_candidates(tiny_caption, tiny_pair.text, word_list_size=5)
        for cand in enumerate_text_candidates(tiny_caption, wcl):
            txt = proj(encode_text(tiny_pair.text, cand))
            expect = -(
                cfg.kappa * similarity_loss(proj(imgs[0]), txt)
                + cfg.mu * similarity_loss(proj(imgs[1]), txt)
                + cfg.nu * similarity_loss(proj(imgs[2]), txt)
            )
            assert score_text_candidate(encode_text(tiny_pair.text, cand), *pre, pb, cfg) == expect


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
        chosen, changed = run_text_attack(
            tiny_caption, tiny_image, prev, cur, tiny_pair, None, cfg
        )
        assert hamming(chosen, tiny_caption) <= 1
        assert changed == (chosen != tiny_caption)

    def test_chosen_caption_scores_at_least_original(
        self, tiny_pair, tiny_image, tiny_caption
    ):
        cfg = AttackConfig()
        chosen, _ = run_text_attack(
            tiny_caption, tiny_image, tiny_image, tiny_image, tiny_pair, None, cfg
        )
        clean = encode_image(tiny_pair.image, tiny_image)
        score = lambda c: score_text_candidate(
            encode_text(tiny_pair.text, c), clean, clean, clean, None, cfg
        )
        assert score(chosen) >= score(tiny_caption)

    def test_deterministic(self, tiny_pair, tiny_image, tiny_caption):
        cfg = AttackConfig()
        a, _ = run_text_attack(
            tiny_caption, tiny_image, tiny_image, tiny_image, tiny_pair, None, cfg
        )
        b, _ = run_text_attack(
            tiny_caption, tiny_image, tiny_image, tiny_image, tiny_pair, None, cfg
        )
        assert a == b

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_equals_per_candidate_oracle(self, tiny_pair, tiny_image, tiny_caption, rng, use_projector):
        # one token gather for all candidates picks the caption that one
        # encode_text call per candidate picks
        pb = build_projection(rng.standard_normal((4, 16))) if use_projector else None
        cfg = AttackConfig(word_list_size=15)
        for _ in range(5):
            prev, cur = (
                np.clip(tiny_image + 0.05 * rng.standard_normal((8, 8)), 0, 1) for _ in range(2)
            )
            args = (tiny_caption, tiny_image, prev, cur, tiny_pair, pb, cfg)
            assert run_text_attack(*args) == run_text_attack_per_candidate(*args)


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
        assert run_text_attack(caption, tiny_image, tiny_image, cur, pair, None, cfg) == (caption, False)

    def test_tie_without_original_takes_lowest_index(self, tiny_image, rng):
        # 12 tokens on 3 rows: each substitution ties with the three other
        # tokens of its row at that position
        cfg = AttackConfig(word_list_size=11)
        caption = (0, 1, 2, 3)
        exercised = 0
        for _ in range(10):
            pair = _tied_pair(3, 12, rng)
            cur = np.clip(tiny_image + 0.05 * rng.standard_normal((8, 8)), 0, 1)
            chosen, changed = run_text_attack(caption, tiny_image, tiny_image, cur, pair, None, cfg)
            embs = [encode_image(pair.image, x) for x in (tiny_image, tiny_image, cur)]
            cands = enumerate_text_candidates(caption, build_word_candidates(caption, pair.text, 11))
            scores = [
                score_text_candidate(encode_text(pair.text, c), *embs, None, cfg) for c in cands
            ]
            winners = [i for i, v in enumerate(scores) if v == max(scores)]
            assert chosen == cands[winners[0]]
            assert changed == (winners[0] != 0)
            exercised += winners[0] != 0 and len(winners) > 1
        assert exercised > 0
