import csv
from collections import Counter
from dataclasses import fields, replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aetlab import encoders, harness, image_attack, text_attack
from aetlab.core import AttackConfig, similarity
from aetlab.harness import (
    DatasetDims,
    DegenerateAlphaError,
    ExperimentReport,
    GeneratorParams,
    TRANSFER_EMBED_DIM,
    UndefinedASRError,
    alpha_metric,
    attack_pairs,
    attack_success_rate,
    base_encoders,
    clean_recall_at_1,
    craft_adversarial_pairs,
    default_model_pool,
    load_dataset_descriptor,
    mean_diagonal_asr,
    mean_transfer_alpha,
    mean_transfer_asr,
    resolve_variant,
    retrieval_rank,
    run_transfer_experiment,
    save_dataset_descriptor,
    surrogate_projector,
    synth_dataset,
    write_report,
)
from aetlab.subspace import build_projection, sample_corpus
from oracles import (
    attack_pairs_per_sample,
    caption_from_latent,
    latent_caption_pair,
    mutual_pairs_loop,
    synth_per_attempt,
    transfer_reports_per_pair,
)

SMALL_DIMS = DatasetDims(height=8, width=8, embed_dim=16, vocab_size=128, caption_len=4)
SMALL_GEN = GeneratorParams(held_out=10, held_out_len=12)


@pytest.fixture(scope="module")
def small_ds():
    return synth_dataset(
        seed=5, n_pairs=8, dims=SMALL_DIMS, gen=SMALL_GEN
    )


@pytest.fixture
def tiny_cfg():
    return AttackConfig(steps=3, samples=2, scales=(1.0,), master_seed=5)


class TestDatasetDims:
    def test_defaults(self):
        d = DatasetDims()
        assert (d.height, d.width, d.embed_dim, d.vocab_size, d.caption_len) == (
            12, 12, 32, 256, 5,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetDims(height=0)
        with pytest.raises(ValueError):
            DatasetDims(caption_len=300, vocab_size=256)

    def test_embed_dim_must_be_below_pixel_count(self):
        # checked where the dims are declared, before any encoder is built
        with pytest.raises(ValueError, match="embed_dim must be below the pixel count"):
            DatasetDims(4, 4, 16, 64)
        assert DatasetDims(4, 4, 15, 64).embed_dim == 15


class TestSynthDataset:
    def test_shapes_and_ranges(self, small_ds):
        assert small_ds.n_pairs == 8
        for img in small_ds.images:
            assert img.shape == (8, 8)
            assert img.min() >= 0.0 and img.max() <= 1.0
        for cap in small_ds.captions:
            assert len(cap) == 4
        assert len(small_ds.held_out_texts) == 10
        assert all(len(t) == 12 for t in small_ds.held_out_texts)

    def test_images_are_one_read_only_stack(self, small_ds, tmp_path):
        images = small_ds.images
        assert type(images) is np.ndarray and images.dtype == np.float64
        assert images.shape == (8, 8, 8) and images.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            images[0][0, 0] = 7.0
        save_dataset_descriptor(small_ds, tmp_path / "ds.txt")
        loaded = load_dataset_descriptor(tmp_path / "ds.txt").images
        assert loaded.shape == images.shape and loaded.tobytes() == images.tobytes()
        assert not loaded.flags.writeable

    def test_captions_unique(self, small_ds):
        assert len(set(small_ds.captions)) == small_ds.n_pairs

    def test_clean_retrieval_is_perfect_by_construction(self, small_ds):
        tr, ir = clean_recall_at_1(small_ds, small_ds.base)
        assert tr == 100.0
        assert ir == 100.0

    def test_deterministic(self):
        a = synth_dataset(seed=5, n_pairs=4, dims=SMALL_DIMS, gen=GeneratorParams(held_out=5))
        b = synth_dataset(seed=5, n_pairs=4, dims=SMALL_DIMS, gen=GeneratorParams(held_out=5))
        for x, y in zip(a.images, b.images):
            np.testing.assert_array_equal(x, y)
        assert a.captions == b.captions
        assert a.held_out_texts == b.held_out_texts

    @pytest.mark.parametrize(
        "seed, n_pairs", [(18, 100), (17, 100), (18, 300), (4, 300), (0, 300), (28, 300)]
    )
    def test_acceptance_equals_per_pair_loop(self, seed, n_pairs):
        # confirmed fixed points with new captions are exactly the pairs the
        # 8-round fixed point and the cross-score check accept, the budget
        # ends where the loop's does, and the held-out texts go on from the
        # next draw of the stream. Seeds 17, 0 and 28 each draw a latent
        # whose fixed point is its 8th caption, which only the confirming
        # evaluation accepts; seed 0's repeats an accepted caption
        dims, gen = DatasetDims(embed_dim=TRANSFER_EMBED_DIM), GeneratorParams()
        ds = synth_dataset(seed, n_pairs, dims=dims)
        got = synth_per_attempt(seed, n_pairs, dims, gen)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))  # synth_dataset's stream
        budget = 400 * (n_pairs + gen.held_out)
        want = mutual_pairs_loop(ds.base, rng, n_pairs, dims.caption_len, budget)
        latents = np.array(got.latents)
        assert np.array_equal(latents, np.array(want[0])) and latents.shape == (n_pairs, 64)
        assert list(got.captions) == want[1] == list(ds.captions)
        assert budget - got.pair_attempts == want[2] <= budget - n_pairs
        assert ds.held_out_texts == got.held_out_texts
        assert all(np.array_equal(a, b) for a, b in zip(ds.images, got.images))

    def test_unconfirmed_draws_rejected(self, monkeypatch):
        # with two updates most attempts end unconfirmed: those are rejected,
        # every accepted pair is a confirmed fixed point, and synth_dataset
        # reads the round count when it is called
        gen = GeneratorParams()
        eight = synth_dataset(3, 40, dims=SMALL_DIMS)
        monkeypatch.setattr(harness, "_FIXED_POINT_ITERS", 2)
        base = base_encoders(3, SMALL_DIMS, gen)
        starts = np.random.default_rng(np.random.SeedSequence([3, 0xDA7A])).standard_normal((200, 16))
        got = [latent_caption_pair(base, z0, 4, rounds=2) for z0 in starts]
        assert 20 < sum(g is None for g in got) < 180
        ds = synth_dataset(3, 40, dims=SMALL_DIMS)
        want = synth_per_attempt(3, 40, SMALL_DIMS, gen, rounds=2)
        assert want.pair_attempts > harness._DRAW_BLOCK and ds.captions != eight.captions
        assert ds.captions == want.captions and ds.held_out_texts == want.held_out_texts
        assert all(np.array_equal(a, b) for a, b in zip(ds.images, want.images))
        for cap, z in zip(want.captions, want.latents):
            emb = encoders.encode_text(base.text, cap)
            assert np.array_equal(z, emb / np.linalg.norm(emb))
            assert caption_from_latent(base.text.table, z, 4) == cap

    @pytest.mark.parametrize("n_pairs", [2, 100, 300, 1000])
    @pytest.mark.parametrize("seed", [0, 4, 17, 18, 28])
    def test_equals_per_attempt_loop(self, seed, n_pairs):
        # the block draw loop gives the per-attempt loop's image bytes,
        # captions and held-out texts
        dims, gen = DatasetDims(embed_dim=TRANSFER_EMBED_DIM), GeneratorParams()
        ds = synth_dataset(seed, n_pairs, dims=dims)
        want = synth_per_attempt(seed, n_pairs, dims, gen)
        assert ds.captions == want.captions and ds.held_out_texts == want.held_out_texts
        assert [im.tobytes() for im in ds.images] == [im.tobytes() for im in want.images]

    @pytest.mark.parametrize("seed, n_pairs, ends", [(0, 60, (61, 101)), (28, 1000, (1176, 1216))])
    def test_attempts_crossing_a_block_edge(self, seed, n_pairs, ends):
        # ends: the attempts after the pairs and after the held-out texts.
        # Seed 0's held-out texts start on the unused tail of the first
        # 64-attempt block and cross its edge; seed 28's attempts fill
        # exactly 19 blocks
        dims, gen = DatasetDims(embed_dim=TRANSFER_EMBED_DIM), GeneratorParams()
        want = synth_per_attempt(seed, n_pairs, dims, gen)
        assert harness._DRAW_BLOCK == 64
        assert (want.pair_attempts, want.pair_attempts + want.held_out_attempts) == ends
        ds = synth_dataset(seed, n_pairs, dims=dims)
        assert ds.captions == want.captions and ds.held_out_texts == want.held_out_texts
        assert [im.tobytes() for im in ds.images] == [im.tobytes() for im in want.images]

    @pytest.mark.parametrize("seed", range(32))
    def test_clean_retrieval_is_exact_at_the_reference_shape(self, seed):
        ds = synth_dataset(seed, 100, dims=DatasetDims(embed_dim=TRANSFER_EMBED_DIM))
        assert clean_recall_at_1(ds, ds.base) == (100.0, 100.0)

    def test_acceptance_stops_with_the_budget(self):
        # 4 tokens make 6 two-token captions, fewer than 7 pairs, and at
        # most 4 one-token held-out texts, fewer than 5: each phase spends
        # the whole budget and raises the per-attempt loop's message
        dims = DatasetDims(4, 4, 4, 4, 2)
        cases = [
            (7, GeneratorParams(held_out=1, semantic_rank=2, held_out_len=2), "retrievable pairs"),
            (2, GeneratorParams(held_out=5, semantic_rank=2, held_out_len=1), "held-out captions"),
        ]
        for n_pairs, gen, message in cases:
            with pytest.raises(ValueError, match=message) as want:
                synth_per_attempt(0, n_pairs, dims, gen)
            with pytest.raises(ValueError, match=message) as got:
                synth_dataset(0, n_pairs, dims, gen)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("token", [128, -1])
    @pytest.mark.parametrize("field", ["captions", "held_out_texts"])
    def test_token_outside_vocabulary_raises(self, small_ds, field, token):
        # SMALL_DIMS has 128 tokens
        texts = getattr(small_ds, field)
        bad = (texts[0][:-1] + (token,),) + texts[1:]
        with pytest.raises(ValueError, match="caption token outside vocabulary"):
            replace(small_ds, **{field: bad})

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            synth_dataset(seed, 4, dims=SMALL_DIMS)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_pairs=1, dims=SMALL_DIMS)
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_pairs=4, dims=SMALL_DIMS, gen=GeneratorParams(held_out=0))
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_pairs=4, dims=SMALL_DIMS, gen=GeneratorParams(latent_scale=0.0))
        for scale in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="latent_scale"):
                GeneratorParams(latent_scale=scale)

    @pytest.mark.parametrize(
        "field, value",
        [("semantic_rank", 0), ("semantic_rank", -1), ("table_jitter", -1.0),
         ("table_jitter", float("nan")), ("table_jitter", float("inf"))],
    )
    def test_generator_params_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            GeneratorParams(**{field: value})

    def test_semantic_rank_above_the_table_rank_rejected(self):
        # SMALL_DIMS has embed_dim 16; a 12-token vocabulary caps the rank at 12
        for dims, rank in ((SMALL_DIMS, 17), (DatasetDims(8, 8, 16, 12, 4), 13)):
            with pytest.raises(ValueError, match="semantic_rank"):
                synth_dataset(seed=0, n_pairs=4, dims=dims,
                              gen=GeneratorParams(semantic_rank=rank, held_out_len=4))

    def test_descriptor_round_trip(self, small_ds, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(small_ds, path)
        loaded = load_dataset_descriptor(path)
        assert loaded.captions == small_ds.captions
        for x, y in zip(loaded.images, small_ds.images):
            np.testing.assert_array_equal(x, y)

    def test_descriptor_round_trip_every_field(self, tmp_path):
        # every generator parameter away from its default survives the file
        dims = DatasetDims(height=9, width=7, embed_dim=12, vocab_size=96, caption_len=3)
        gen = GeneratorParams(held_out=7, latent_scale=0.35, semantic_rank=5,
                              table_jitter=0.125, held_out_len=11)
        assert all(getattr(d, f.name) != f.default
                   for d in (dims, gen) for f in fields(d))
        ds = synth_dataset(seed=3, n_pairs=5, dims=dims, gen=gen)
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(ds, path)
        loaded = load_dataset_descriptor(path)
        assert (loaded.seed, loaded.n_pairs, loaded.dims, loaded.gen) == (3, 5, dims, gen)
        assert loaded.captions == ds.captions and loaded.held_out_texts == ds.held_out_texts
        assert all(np.array_equal(a, b) for a, b in zip(loaded.images, ds.images))
        save_dataset_descriptor(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_descriptor_missing_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("seed=1\n")
        with pytest.raises(ValueError):
            load_dataset_descriptor(path)

    def test_descriptor_missing_key_is_named(self, small_ds, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(small_ds, path)
        path.write_text(path.read_text().replace("held_out=10\n", ""))
        with pytest.raises(ValueError, match=r"ds\.txt: missing descriptor key 'held_out'$"):
            load_dataset_descriptor(path)

    def test_descriptor_unknown_key_is_reported_before_a_missing_one(self, small_ds, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(small_ds, path)
        text = path.read_text().replace("held_out=10\n", "")
        path.write_text(text + "latent_scal=0.9\n")
        with pytest.raises(ValueError, match=r"ds\.txt: unknown descriptor key 'latent_scal'$"):
            load_dataset_descriptor(path)

    def test_descriptor_negative_seed_names_key_and_file(self, small_ds, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(small_ds, path)
        path.write_text(path.read_text().replace("seed=5\n", "seed=-1\n"))
        with pytest.raises(ValueError, match=r"ds\.txt: bad value '-1' for key 'seed'"):
            load_dataset_descriptor(path)

    def test_descriptor_unknown_key(self, small_ds, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(small_ds, path)
        path.write_text(path.read_text() + "latent_scal=0.9\n")
        with pytest.raises(ValueError, match="latent_scal"):
            load_dataset_descriptor(path)

    @pytest.mark.parametrize(
        "key, bad",
        [("n_pairs", "1"), ("height", "0"), ("embed_dim", "64"), ("semantic_rank", "999"),
         ("table_jitter", "nan")],
    )
    def test_descriptor_value_out_of_range_names_the_file(self, small_ds, tmp_path, key, bad):
        # a value that parses but fails a range check is reported as the
        # type errors are, prefixed with the descriptor's path
        path = tmp_path / "ds.txt"
        save_dataset_descriptor(small_ds, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(key + "=")]
        path.write_text("\n".join([*lines, f"{key}={bad}"]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_dataset_descriptor(path)
        assert str(exc.value).startswith(f"{path}: {key} must be")


class TestRetrievalRank:
    def test_true_match_on_top(self):
        gallery = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert retrieval_rank(gallery, gallery).tolist() == [1, 1, 1]

    def test_counts_strictly_better_items(self):
        gallery = np.array([[1.0], [3.0], [2.0]])
        # every query scores the gallery 1, 3, 2: the true pair of query 0
        # is beaten by two items, that of query 2 by one
        assert retrieval_rank(np.ones((3, 1)), gallery).tolist() == [3, 1, 2]

    def test_ties_are_optimistic(self):
        gallery = np.ones((3, 1))
        assert retrieval_rank(gallery, gallery).tolist() == [1, 1, 1]

    @example(shapes=(2, 2, 3, 2))
    @given(
        shapes=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4))
        .filter(lambda s: s[:2] != s[2:])
    )
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ValueError):
            retrieval_rank(np.ones(shapes[:2]), np.ones(shapes[2:]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_count(self, data):
        # small integers make exact ties common; n spans several row blocks
        n = data.draw(st.integers(1, 150), label="n")
        d = data.draw(st.integers(1, 3), label="d")
        ints = arrays(np.int64, (n, d), elements=st.integers(-2, 2))
        q, g = data.draw(ints, label="queries"), data.draw(ints, label="gallery")
        sims = (q @ g.T).tolist()  # exact: integer arithmetic
        # strictly greater only: a tie with the true pair does not count
        expect = [1 + sum(s > row[i] for s in row) for i, row in enumerate(sims)]
        assert retrieval_rank(q.astype(float), g.astype(float)).tolist() == expect


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_the_rank_of_kernel_scores(self, data):
        # the block product ranks as core.similarity's scores do, since the
        # positive 1/d scale keeps the order (exact on integer entries)
        n = data.draw(st.integers(1, 100), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        ints = arrays(np.int64, (n, d), elements=st.integers(-3, 3))
        q, g = (data.draw(ints, label=name).astype(float) for name in ("queries", "gallery"))
        expect = []
        for i in range(n):
            scores = similarity(g, q[i])
            expect.append(1 + sum(s > scores[i] for s in scores))
        assert retrieval_rank(q, g).tolist() == expect


class TestSurrogateProjector:
    def test_corpus_rows_are_the_encode_text_rows(self, small_ds, tiny_cfg):
        # one embed_captions call gives the bits of a per-text encode_text loop
        for stream in (0, 3):
            corpus = sample_corpus(
                small_ds.held_out_texts, tiny_cfg.corpus_proportion,
                np.random.SeedSequence([tiny_cfg.master_seed, stream, 0xC0]),
            )
            rows = np.stack([encoders.encode_text(small_ds.base.text, c) for c in corpus])
            got = surrogate_projector(small_ds, small_ds.base, tiny_cfg, stream)
            assert np.array_equal(got, build_projection(rows))


class TestAttackSuccessRate:
    def test_nothing_fooled(self):
        assert attack_success_rate([1, 1, 1], [1, 1, 1]) == 0.0

    def test_everything_fooled(self):
        assert attack_success_rate([1, 1, 1], [2, 5, 3]) == 100.0

    def test_mixed_counting_oracle(self):
        clean = [1, 1, 2, 1]
        adv = [3, 1, 5, 2]
        # conditioned on the three clean rank-1 queries, two got pushed down
        assert attack_success_rate(clean, adv) == pytest.approx(100.0 * 2 / 3)

    def test_monotone_under_rank_degradation(self):
        clean = [1, 1, 1, 1]
        base = attack_success_rate(clean, [1, 2, 1, 1])
        worse = attack_success_rate(clean, [1, 2, 4, 1])
        assert worse >= base

    def test_no_clean_hits_is_undefined(self):
        with pytest.raises(UndefinedASRError):
            attack_success_rate([2, 3], [4, 5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            attack_success_rate([1, 1], [1, 1, 1])


class TestAlphaMetric:
    CLEAN = np.array([0.5, 0.2, -0.1])
    TARGET = np.array([0.1, -0.3, -0.4])  # white-box losses, all below clean
    SURROGATE = np.array([0.4, 0.3, -0.2])

    def test_identical_pairs_give_exactly_one(self):
        assert alpha_metric(self.CLEAN, self.TARGET, self.TARGET).tolist() == [1.0] * 3

    def test_clean_numerator_gives_zero(self):
        assert alpha_metric(self.CLEAN, self.CLEAN, self.TARGET).tolist() == [0.0] * 3

    def test_scale_consistency(self):
        # scaling the target model's loss by c > 0 leaves the ratios unchanged
        np.testing.assert_allclose(
            alpha_metric(3.0 * self.CLEAN, 3.0 * self.SURROGATE, 3.0 * self.TARGET),
            alpha_metric(self.CLEAN, self.SURROGATE, self.TARGET),
        )

    def test_degenerate_denominator(self):
        target = self.TARGET.copy()
        target[1] = self.CLEAN[1]
        with pytest.raises(DegenerateAlphaError):
            alpha_metric(self.CLEAN, self.SURROGATE, target)


class TestResolveVariant:
    def test_saaet_uses_projector(self, tiny_cfg):
        cfg, use_projector, pin_current = resolve_variant("saaet", tiny_cfg)
        assert use_projector and pin_current is False and cfg == tiny_cfg

    def test_dra_drops_projector(self, tiny_cfg):
        cfg, use_projector, pin_current = resolve_variant("dra", tiny_cfg)
        assert not use_projector and pin_current is False

    def test_sga_forces_current_image_vertex(self, tiny_cfg):
        cfg, use_projector, pin_current = resolve_variant("sga", tiny_cfg)
        assert not use_projector
        assert pin_current is True
        assert cfg.samples == 1
        assert (cfg.kappa, cfg.mu, cfg.nu) == (0.0, 0.0, 1.0)

    def test_subtriangle_region(self, tiny_cfg):
        cfg, use_projector, pin_current = resolve_variant("subtriangle-C", tiny_cfg)
        assert use_projector and pin_current is False and cfg.region == "C"

    def test_unknown_variant(self, tiny_cfg):
        with pytest.raises(ValueError):
            resolve_variant("pgd", tiny_cfg)


@pytest.fixture(scope="module")
def reports():
    ds = synth_dataset(seed=5, n_pairs=8, dims=SMALL_DIMS, gen=SMALL_GEN)
    pool = default_model_pool(ds, n_models=2)
    cfg = AttackConfig(steps=3, samples=2, scales=(1.0,), master_seed=5)
    return run_transfer_experiment(ds, pool, cfg, variant="saaet")


class TestTransferExperiment:

    def test_one_report_per_ordered_cell(self, reports):
        cells = {(r.surrogate, r.target) for r in reports}
        assert len(reports) == 4
        assert cells == {
            ("model0", "model0"), ("model0", "model1"),
            ("model1", "model0"), ("model1", "model1"),
        }

    def test_diagonal_alpha_is_exactly_one(self, reports):
        for r in reports:
            if r.surrogate == r.target:
                assert r.alpha_mean == 1.0

    def test_deterministic(self):
        ds = synth_dataset(seed=5, n_pairs=4, dims=SMALL_DIMS, gen=SMALL_GEN)
        pool = default_model_pool(ds, n_models=2)
        cfg = AttackConfig(steps=3, samples=2, scales=(1.0,), master_seed=5)
        a = run_transfer_experiment(ds, pool, cfg)
        b = run_transfer_experiment(ds, pool, cfg)
        assert a == b

    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    def test_equals_per_pair_scoring(self, variant):
        ds = synth_dataset(seed=7, n_pairs=12, dims=SMALL_DIMS, gen=SMALL_GEN)
        pool = default_model_pool(ds, n_models=3)
        cfg = AttackConfig(steps=3, samples=2, scales=(1.0,), master_seed=7)
        got = run_transfer_experiment(ds, pool, cfg, variant)
        want = transfer_reports_per_pair(ds, pool, cfg, variant)
        assert len(got) == len(want) == 9
        for g, w in zip(got, want):
            assert (g.surrogate, g.target, g.tr_asr, g.ir_asr) == (
                w.surrogate, w.target, w.tr_asr, w.ir_asr
            )
            assert g.alpha_mean == w.alpha_mean
            if g.surrogate == g.target:
                assert g.alpha_mean == 1.0

    def test_pool_of_one_rejected(self, small_ds, tiny_cfg):
        pool = default_model_pool(small_ds, n_models=1)
        with pytest.raises(ValueError):
            run_transfer_experiment(small_ds, pool, tiny_cfg)

    def test_mean_helpers(self, reports):
        off = [r.tr_asr for r in reports if r.surrogate != r.target]
        diag = [r.tr_asr for r in reports if r.surrogate == r.target]
        assert mean_transfer_asr(reports) == pytest.approx(np.mean(off))
        assert mean_diagonal_asr(reports) == pytest.approx(np.mean(diag))
        alphas = [r.alpha_mean for r in reports if r.surrogate != r.target]
        assert mean_transfer_alpha(reports) == pytest.approx(np.mean(alphas))

    def test_mean_helpers_reject_missing_cells(self, reports):
        diag_only = [r for r in reports if r.surrogate == r.target]
        with pytest.raises(ValueError):
            mean_transfer_asr(diag_only)


class TestCraftAdversarialPairs:
    def test_budgets_hold_for_all_pairs(self, small_ds, tiny_cfg):
        crafted = craft_adversarial_pairs(small_ds, small_ds.base, tiny_cfg, "saaet")
        assert len(crafted) == small_ds.n_pairs
        for p, (img, cap) in enumerate(crafted):
            assert np.max(np.abs(img - small_ds.images[p])) <= tiny_cfg.eps_image + 1e-12
            assert sum(a != b for a, b in zip(cap, small_ds.captions[p])) <= 1

    def test_stream_isolation(self, small_ds, tiny_cfg):
        a = craft_adversarial_pairs(small_ds, small_ds.base, tiny_cfg, "dra", stream=0)
        b = craft_adversarial_pairs(small_ds, small_ds.base, tiny_cfg, "dra", stream=1)
        assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a, b))

    @pytest.mark.parametrize(
        "variant, overrides, grads",
        [
            ("saaet", {}, 95),
            ("dra", {}, 95),
            ("subtriangle-C", {}, 95),
            ("sga", {}, 59),
            ("saaet", dict(steps=2, samples=1, scales=(1.0,)), 3),
            ("sga", dict(steps=2, samples=1, scales=(1.0,)), 3),
        ],
    )
    def test_counted_calls_per_pair(self, monkeypatch, variant, overrides, grads):
        # perfbench's traced run wraps these two import sites and expects
        # exactly these counts per pair: 5 scales + 9 steps x (samples +
        # 5 scales) gradients, and 1 + 5 words x 10 candidate captions
        ds = synth_dataset(seed=2, n_pairs=3)
        counts = Counter()
        for mod, name in ((image_attack, "grad_loss_wrt_image"), (text_attack, "score_text_candidate")):
            def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        craft_adversarial_pairs(ds, ds.base, AttackConfig(master_seed=2, **overrides), variant)
        assert counts == {"grad_loss_wrt_image": 3 * grads, "score_text_candidate": 3 * 51}


    @pytest.mark.parametrize(
        "variant, overrides, selections",
        [
            ("saaet", {}, 9),
            ("subtriangle-C", dict(samples=2), 9),
            ("saaet", dict(steps=3, samples=2, scales=(1.0,)), 2),
            ("sga", {}, 0),
            ("saaet", dict(samples=1), 0),
            ("saaet", dict(steps=2, samples=1, scales=(1.0,)), 0),
            ("sga", dict(steps=2, samples=1, scales=(1.0,)), 0),
        ],
    )
    def test_one_sample_selection_skipped(self, monkeypatch, variant, overrides, selections):
        # text_guided_select runs once per later step (T - 1 per pair) when
        # a step has samples to choose from, and never for one sample (sga,
        # and the gallery benchmark's config), whose argmin is index 0
        ds = synth_dataset(seed=2, n_pairs=3)
        calls = []

        def counted(*args, _fn=image_attack.text_guided_select, **kwargs):
            calls.append(len(args[2]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(image_attack, "text_guided_select", counted)
        cfg = AttackConfig(master_seed=2, **overrides)
        craft_adversarial_pairs(ds, ds.base, cfg, variant)
        assert len(calls) == 3 * selections
        assert all(m > 1 for m in calls)

    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    @pytest.mark.parametrize(
        "overrides, adjoints", [({}, 4), (dict(steps=2, samples=1, scales=(1.0,)), 0)]
    )
    def test_scale_adjoints_once_per_pair(self, monkeypatch, variant, overrides, adjoints):
        # the gradient does not depend on the image, so each pair's table
        # applies one adjoint per non-unit scale, however many gradients it
        # takes: one row of a single adjoint call on the (3, H, W) stack of
        # all pairs (perfbench counts this binding as
        # core.scale_adjoint_calls)
        ds = synth_dataset(seed=2, n_pairs=3)
        calls = Counter()

        def counted(*args, _fn=encoders.scale_augment_adjoint, **kwargs):
            calls[args[2]] += len(args[0])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(encoders, "scale_augment_adjoint", counted)
        craft_adversarial_pairs(ds, ds.base, AttackConfig(master_seed=2, **overrides), variant)
        assert sum(calls.values()) == 3 * adjoints
        assert set(calls.values()) <= {3}

    @pytest.mark.parametrize("variant", ["saaet", "dra", "sga"])
    @pytest.mark.parametrize("n_pairs", [2, 5])
    def test_pair_setup_once_per_surrogate(self, monkeypatch, variant, n_pairs):
        # the inputs of a pair that the attack does not change (text
        # direction, gradient table, budget box, clean embedding) are built
        # for all pairs in one stacked call per surrogate, before the first
        # pair, whatever the pair count; the previous and final images'
        # rows come from the image attack, so no per-pair call remains
        ds = synth_dataset(seed=2, n_pairs=n_pairs)
        pool = default_model_pool(ds, n_models=2)
        calls = Counter()
        adv_rows = []
        for name in ("embed_captions", "gradient_table", "linf_box", "embed_images"):
            def counted(*args, _fn=getattr(harness, name), _name=name, **kwargs):
                out = _fn(*args, **kwargs)
                # the projector's corpus also goes through embed_captions;
                # any other embed_images call would be a per-pair one
                if _name == "embed_images" and args[1] is not ds.images:
                    adv_rows.append(len(out))
                elif _name != "embed_captions" or len(out) == n_pairs:
                    calls[_name] += 1
                return out

            monkeypatch.setattr(harness, name, counted)
        cfg = AttackConfig(master_seed=2, steps=2)
        for stream, surrogate in enumerate(pool):
            pairs = attack_pairs(ds, surrogate, cfg, variant, stream)
            assert set(calls.values()) == {stream + 1}
            assert len(list(pairs)) == n_pairs
        assert calls == dict.fromkeys(
            ("embed_captions", "gradient_table", "linf_box", "embed_images"), len(pool)
        )
        assert adv_rows == []

    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    def test_word_neighbours_once_per_call(self, monkeypatch, variant):
        # the caption attack's nearest-token table depends only on the
        # surrogate, so attack_pairs builds it once, before the first pair
        ds = synth_dataset(seed=2, n_pairs=3)
        sizes = []

        def counted(*args, _fn=text_attack.word_neighbours, **kwargs):
            sizes.append(args[1])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, "word_neighbours", counted)
        monkeypatch.setattr(text_attack, "word_neighbours", counted)
        pairs = attack_pairs(ds, ds.base, AttackConfig(master_seed=2, word_list_size=7), variant)
        assert sizes == [7]
        assert len(list(pairs)) == 3
        assert sizes == [7]


class TestAttackPairsOracle:
    @pytest.mark.parametrize("variant", ["saaet", "dra", "sga", "subtriangle-C"])
    def test_equals_per_sample_oracle(self, variant):
        # stacked triangle samples, one back-projection per pair and one
        # token matrix per caption search reproduce the per-sample and
        # per-candidate path bit for bit, with and without substitutes
        ds = synth_dataset(seed=7, n_pairs=4, dims=DatasetDims(embed_dim=64))
        pool = default_model_pool(ds, n_models=2)
        for cfg in (
            AttackConfig(master_seed=7),
            AttackConfig(master_seed=7, word_list_size=0, samples=1),
        ):
            got = list(attack_pairs(ds, pool[1], cfg, variant, stream=1))
            want = attack_pairs_per_sample(ds, pool[1], cfg, variant, stream=1)
            assert len(got) == len(want) == 4
            for (img, cap, trace), (o_img, o_cap, o_trace) in zip(got, want):
                assert np.array_equal(img, o_img)
                assert cap == o_cap
                assert trace == o_trace


    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    def test_unselected_samples_equal_per_sample_oracle(self, variant):
        # with one sample the attack skips the selection; the gallery
        # benchmark's config still reproduces the oracle, which scores its
        # one sample, and every later step records index 0
        ds = synth_dataset(seed=7, n_pairs=4, dims=DatasetDims(embed_dim=64))
        pool = default_model_pool(ds, n_models=2)
        cfg = AttackConfig(master_seed=7, steps=2, samples=1, scales=(1.0,))
        got = list(attack_pairs(ds, pool[0], cfg, variant))
        want = attack_pairs_per_sample(ds, pool[0], cfg, variant)
        assert len(got) == len(want) == 4
        for (img, cap, trace), (o_img, o_cap, o_trace) in zip(got, want):
            assert np.array_equal(img, o_img)
            assert cap == o_cap
            assert trace == o_trace
            assert [r.chosen_index for r in trace] == [-1, 0]


class TestAttackPairsBlocks:
    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    @pytest.mark.parametrize("block", [1, 3, 6])
    def test_outputs_do_not_depend_on_the_caption_block(self, monkeypatch, variant, block):
        # the caption candidates and their embeddings are built per block
        # of pairs; blocks of 1, of 3 (the last one short) and of N + 1
        # give every pair the bits of the default block, and so does every
        # islice prefix, the path of cli attack --limit
        ds = synth_dataset(seed=3, n_pairs=5, dims=DatasetDims(embed_dim=64))
        sur = default_model_pool(ds, n_models=2)[1]
        cfg = AttackConfig(master_seed=3, steps=4)
        want = list(attack_pairs(ds, sur, cfg, variant, stream=1))
        monkeypatch.setattr(harness, "_CAPTION_BLOCK", block)
        for n in range(ds.n_pairs + 1):
            got = list(islice(attack_pairs(ds, sur, cfg, variant, stream=1), n))
            assert len(got) == n
            for (img, cap, trace), (w_img, w_cap, w_trace) in zip(got, want):
                assert np.array_equal(img, w_img)
                assert cap == w_cap
                assert trace == w_trace

    def test_blocks_built_as_pairs_are_consumed(self, monkeypatch):
        # a prefix of n pairs builds only the candidate blocks it reaches
        ds = synth_dataset(seed=3, n_pairs=5)
        blocks = []

        def counted(*args, _fn=harness.build_word_candidates, **kwargs):
            blocks.append(len(args[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, "build_word_candidates", counted)
        monkeypatch.setattr(harness, "_CAPTION_BLOCK", 2)
        for n, sizes in ((0, []), (1, [2]), (2, [2]), (3, [2, 2]), (5, [2, 2, 1])):
            blocks.clear()
            list(islice(attack_pairs(ds, ds.base, AttackConfig(master_seed=3, steps=2), "sga"), n))
            assert blocks == sizes


class TestAttackPairsScales:
    @pytest.mark.parametrize("variant", ["saaet", "dra", "sga", "subtriangle-C"])
    def test_collapsing_scale_raises_at_the_call(self, small_ds, variant):
        # the gradient table holds every scale's adjoint before attack_pairs
        # returns, so a scale that collapses an 8-pixel axis raises there,
        # before the first pair is drawn
        cfg = AttackConfig(master_seed=5, scales=(1.0, 0.01))
        with pytest.raises(ValueError, match="scale 0.01 collapses axis of length 8"):
            attack_pairs(small_ds, small_ds.base, cfg, variant)


class TestAttackPairsProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        variant=st.sampled_from(["saaet", "dra", "sga", "subtriangle-C"]),
        eps_image=st.floats(0.5 / 255, 16 / 255),
        step_size=st.floats(0.25 / 255, 4 / 255),
        n_pairs=st.integers(2, 4),
        word_list_size=st.integers(0, 12),
        samples=st.integers(1, 5),
        data=st.data(),
    )
    def test_budgets_and_prefix_independence(
        self, seed, variant, eps_image, step_size, n_pairs, word_list_size, samples, data
    ):
        ds = synth_dataset(seed, n_pairs, dims=SMALL_DIMS, gen=SMALL_GEN)
        cfg = AttackConfig(
            eps_image=eps_image,
            step_size=step_size,
            word_list_size=word_list_size,
            samples=samples,
            master_seed=seed,
        )
        full = list(attack_pairs(ds, ds.base, cfg, variant))
        assert len(full) == n_pairs
        for p, (img, cap, _) in enumerate(full):
            assert np.max(np.abs(img - ds.images[p])) <= eps_image + 1e-12
            assert img.min() >= 0.0 and img.max() <= 1.0
            assert len(cap) == len(ds.captions[p])
            assert sum(a != b for a, b in zip(cap, ds.captions[p])) <= cfg.text_budget
        p = data.draw(st.integers(0, n_pairs - 1), label="pair")
        *_, (img, cap, trace) = islice(attack_pairs(ds, ds.base, cfg, variant), p + 1)
        assert np.array_equal(img, full[p][0])
        assert cap == full[p][1]
        assert trace == full[p][2]


class TestWriteReport:
    def _report(self):
        return ExperimentReport("model0", "model1", 75.0, 30.0, 0.44, seed=3)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self._report()], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["surrogate", "target", "tr_asr", "ir_asr", "alpha_mean", "seed"]
        assert rows[1][0] == "model0"
        assert float(rows[1][2]) == 75.0
        assert float(rows[1][4]) == 0.44
        assert int(rows[1][5]) == 3

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([self._report(), self._report()], path)
        data = path.read_bytes()
        assert b"\r" not in data and data.count(b"\n") == 3

    def test_empty_reports_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report([], path)
        assert path.read_text().strip() == "surrogate,target,tr_asr,ir_asr,alpha_mean,seed"

    def test_unwritable_path(self):
        with pytest.raises(IOError):
            write_report([self._report()], "/nonexistent-dir/report.csv")

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ExperimentReport("a", "b", 150.0, 0.0, 1.0, seed=0)
