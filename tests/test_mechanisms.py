"""End-to-end checks that each attack mechanism reaches the outputs.

Each test turns one mechanism off through a public switch (a config field
or a variant) and compares the adversarial images and captions of a small
fixed workload: 12 pairs at d = 64, attacked from both surrogates of a
2-model pool. A mechanism that acts must change the outputs.

The similarity is a dot product, so the attack loss is bilinear and its
image gradient does not depend on the image. Every variant's image is then
the corner of its budget box opposite the gradient's sign
(oracles.box_corner), and the triangle's sampling, its region and the
text-guided selection cannot change anything: the tests below pin that
identity and that those switches leave the outputs bit for bit as they are.
"""
from dataclasses import replace

import numpy as np
import pytest

from aetlab import harness
from aetlab.core import AttackConfig
from aetlab.harness import (
    DatasetDims,
    attack_pairs,
    default_model_pool,
    resolve_variant,
    surrogate_projector,
    synth_dataset,
)
from oracles import box_corner, pair_setup

BASE_CFG = AttackConfig(master_seed=3)


@pytest.fixture(scope="module")
def workload():
    ds = synth_dataset(3, 12, dims=DatasetDims(embed_dim=64))
    return ds, default_model_pool(ds, n_models=2)


def outputs(workload, cfg, variant="saaet"):
    """(images, captions) of every pair, attacked from each surrogate."""
    ds, pool = workload
    images, captions = [], []
    for stream, surrogate in enumerate(pool):
        for img, cap, _ in attack_pairs(ds, surrogate, cfg, variant, stream):
            images.append(img)
            captions.append(cap)
    return images, captions


def same_images(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.fixture(scope="module")
def saaet(workload):
    return outputs(workload, BASE_CFG)


class TestMechanismsThatAct:
    def test_caption_triangle(self, workload, saaet):
        # scoring the caption against the final image alone changes the
        # chosen captions; the image attack does not read the weights
        images, captions = outputs(workload, replace(BASE_CFG, kappa=0.0, mu=0.0, nu=1.0))
        assert same_images(images, saaet[0])
        assert sum(a != b for a, b in zip(captions, saaet[1])) > 0

    def test_multi_scale_sum(self, workload, saaet):
        images, _ = outputs(workload, replace(BASE_CFG, scales=(1.0,)))
        assert not same_images(images, saaet[0])

    def test_semantic_projector(self, workload, saaet):
        images, _ = outputs(workload, BASE_CFG, "dra")
        assert not same_images(images, saaet[0])


class TestMechanismsInertUnderDot:
    def test_selection(self, workload, saaet):
        # one sample per step leaves nothing to select; the gradient does
        # not depend on x, so the five samples' directions were equal anyway
        images, captions = outputs(workload, replace(BASE_CFG, samples=1))
        assert same_images(images, saaet[0]) and captions == saaet[1]

    def test_sub_triangle_region(self, workload, saaet):
        # region C samples other convex combinations than region A; the
        # gradient does not depend on x, so each gives the same direction
        images, captions = outputs(workload, BASE_CFG, "subtriangle-C")
        assert same_images(images, saaet[0]) and captions == saaet[1]

    def test_triangle_pinned_to_the_current_image(self, workload):
        # sga is dra with every sample pinned to the (0, 0, 1) vertex, given
        # the same samples and caption weights; the gradient does not depend
        # on x, so the vertex gives the direction any triangle sample gives
        cfg = replace(BASE_CFG, samples=1, kappa=0.0, mu=0.0, nu=1.0)
        images, captions = outputs(workload, cfg, "dra")
        pinned_images, pinned_captions = outputs(workload, BASE_CFG, "sga")
        assert same_images(images, pinned_images) and captions == pinned_captions


class TestBoxCornerUnderDot:
    """Every variant's image is oracles.box_corner once the steps cross the
    budget box: the default 10 steps of 2/255 and 9 steps pass its width
    2 * 8/255, and 8 steps reach it exactly, which falls short in floating
    point. This one identity is why the selection, the region and the
    pinned vertex above are inert; a loss whose gradient depends on the
    image must break it."""

    @pytest.fixture(scope="class", params=[7, 18])
    def case(self, request):
        ds = synth_dataset(request.param, 12, dims=DatasetDims(embed_dim=64))
        surrogate = default_model_pool(ds, n_models=3)[1]
        return ds, surrogate, AttackConfig(master_seed=request.param)

    @pytest.mark.parametrize("variant", ["saaet", "dra", "sga", "subtriangle-C"])
    def test_images_are_the_box_corner(self, case, variant, monkeypatch):
        ds, surrogate, cfg = case
        run_cfg, use_projector, _ = resolve_variant(variant, cfg)
        projector = surrogate_projector(ds, surrogate, cfg, 1) if use_projector else None
        corners = []
        for x, cap in zip(ds.images, ds.captions):
            loss, _ = pair_setup(x, cap, surrogate, projector, run_cfg)
            assert np.all(sum(loss.grads[s] for s in run_cfg.scales) != 0)
            corners.append(box_corner(x, loss.grads, run_cfg))

        def images(steps):
            pairs = attack_pairs(ds, surrogate, replace(cfg, steps=steps), variant, 1)
            return [img for img, _, _ in pairs]

        assert same_images(images(9), corners)
        final_prev = []

        def recording(*args, _run=harness.run_image_attack, **kwargs):
            out = _run(*args, **kwargs)
            final_prev.append(out[:2])
            return out

        monkeypatch.setattr(harness, "run_image_attack", recording)
        assert same_images(images(10), corners)
        assert len(final_prev) == ds.n_pairs and same_images(*zip(*final_prev))
        assert not any(np.array_equal(a, b) for a, b in zip(images(8), corners, strict=True))
