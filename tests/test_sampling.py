"""Seeded polydisk samples against the point-by-point loop they are drawn like."""

import math

import numpy as np
import pytest

from holoflow.sampling import polydisk_points


def loop_points(rng, dim, n, r_min=0.05, r_max=0.95):
    """Reference: for each point in turn, dim radii and then dim phases."""
    points = []
    for _ in range(n):
        radii = rng.uniform(r_min, r_max, size=dim)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        points.append(tuple(r * complex(math.cos(p), math.sin(p))
                            for r, p in zip(radii, phases)))
    return points


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r_min, r_max", [(0.05, 0.95), (0.0, 0.95), (0.999, 0.999)])
def test_block_draws_equal_the_per_point_loop(dim, r_min, r_max):
    block_rng = np.random.default_rng(2027 + dim)
    loop_rng = np.random.default_rng(2027 + dim)
    block = polydisk_points(block_rng, dim, 37, r_min=r_min, r_max=r_max)
    loop = loop_points(loop_rng, dim, 37, r_min, r_max)
    assert block == loop
    assert [tuple(map(type, p)) for p in block] == [tuple(map(type, p)) for p in loop]
    # the generator is left where the loop leaves it
    assert block_rng.random() == loop_rng.random()


def test_equal_radii_put_every_coordinate_on_the_torus():
    points = np.array(polydisk_points(np.random.default_rng(5), 3, 64, r_min=0.4, r_max=0.4))
    assert points.shape == (64, 3)
    assert np.allclose(np.abs(points), 0.4, rtol=1e-15, atol=0.0)


def test_no_points_draw_nothing():
    rng, fresh = np.random.default_rng(8), np.random.default_rng(8)
    assert polydisk_points(rng, 2, 0) == []
    assert rng.random() == fresh.random()
