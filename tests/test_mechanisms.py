"""End-to-end checks that each attack mechanism reaches the outputs.

Each test turns one mechanism off through a public switch (a config field
or a variant) and compares the adversarial images and captions of a small
fixed workload: 12 pairs at d = 64, attacked from both surrogates of a
2-model pool. A mechanism that acts must change the outputs.

The similarity is a dot product, so the attack loss is bilinear and its
image gradient does not depend on the image. Every triangle sample then
gives the same sign direction, and the triangle's sampling, its region and
the text-guided selection cannot change anything: the tests below pin that
those switches leave the outputs bit for bit as they are.
"""
from dataclasses import replace

import numpy as np
import pytest

from aetlab.core import AttackConfig
from aetlab.harness import DatasetDims, attack_pairs, default_model_pool, synth_dataset

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
