"""Seeded samples against the point-by-point loops they are drawn like, and the oracle read."""

import math
import warnings

import numpy as np
import pytest

from holoflow.sampling import evaluate, halfplane_points, polydisk_points


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
    assert block.dtype == np.complex128 and block.shape == (37, dim)
    assert np.array_equal(block, np.array(loop, dtype=complex))
    # the generator is left where the loop leaves it
    assert block_rng.random() == loop_rng.random()


def test_equal_radii_put_every_coordinate_on_the_torus():
    points = polydisk_points(np.random.default_rng(5), 3, 64, r_min=0.4, r_max=0.4)
    assert points.shape == (64, 3)
    assert np.allclose(np.abs(points), 0.4, rtol=1e-15, atol=0.0)


def test_no_points_draw_nothing():
    for dim in (1, 2, 5):
        rng, fresh = np.random.default_rng(8), np.random.default_rng(8)
        points = polydisk_points(rng, dim, 0)
        assert points.dtype == np.complex128 and points.shape == (0, dim)
        assert rng.random() == fresh.random()


def test_halfplane_draws_equal_the_per_point_pairs():
    rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    points = halfplane_points(rng, 50, x_range=(0.1, 2.0), y_range=(-2.0, 2.0))
    xs, ys = loop_rng.uniform(0.1, 2.0, 50), loop_rng.uniform(-2.0, 2.0, 50)
    assert points.dtype == np.complex128 and points.shape == (50,)
    assert np.array_equal(points, np.array([complex(x, y) for x, y in zip(xs, ys)]))
    assert rng.random() == loop_rng.random()


def test_an_overflow_in_a_batched_oracle_is_a_value_under_an_error_filter():
    # numpy's overflow warning, raised as an error, was read as a refused
    # batch, and the oracle was called again point by point
    calls = []

    def oracle(z):
        calls.append(len(z))
        return 1e308 * (1 + 2 * np.abs(z[:, 0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = evaluate(oracle, np.full((3, 2), 0.5 + 0j))
    assert calls == [3]
    assert np.array_equal(values, np.full(3, complex(math.inf, 0)))
