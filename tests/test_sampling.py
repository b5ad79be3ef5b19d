"""The seeded sampler: shape, support, reproducibility and uniformity in
the domain ball."""

import numpy as np
import pytest

from geoweb.sampling import random_points
from geoweb.web import WebChart

CENTERS = {2: (0.3, -0.1), 3: (0.0, 0.2, -0.4), 4: (0.1, 0.0, -0.2, 0.05)}


def _ball(n, radius=0.4):
    sources = (["x%d" % (a + 1) for a in range(n)]
               + ["-(%s)" % "+".join("x%d" % (a + 1) for a in range(n)),
                  "x1+2*x2+x1*x2"])
    return WebChart.from_strings(n, sources, center=np.array(CENTERS[n]),
                                 radius=radius)


@pytest.mark.parametrize("n", sorted(CENTERS))
def test_points_fill_the_ball_and_repeat_with_the_seed(n):
    web = _ball(n)
    pts = random_points(web, 50, seed=3)
    assert pts.shape == (50, n) and pts.dtype == np.float64
    dist = np.linalg.norm(pts - web.center, axis=1)
    assert np.all(dist <= web.radius * (1 + 1e-15))
    assert random_points(web, 50, seed=3).tobytes() == pts.tobytes()
    # draws are taken point by point: a smaller sample is a prefix
    assert random_points(web, 7, seed=3).tobytes() == pts[:7].tobytes()
    other = random_points(web, 50, seed=4)
    assert not np.any(np.all(other == pts, axis=1))


@pytest.mark.parametrize("n", [2, 4])
def test_points_are_uniform_in_the_ball(n):
    web = _ball(n)
    pts = random_points(web, 20000, seed=1)
    dist = np.linalg.norm(pts - web.center, axis=1)
    # half the ball's volume lies within radius * 2^(-1/n)
    inner = np.mean(dist <= web.radius * 2.0 ** (-1.0 / n))
    assert abs(inner - 0.5) <= 0.02
    assert np.all(np.abs(pts.mean(axis=0) - web.center)
                  <= 0.02 * web.radius)


def test_empty_sample_is_refused():
    with pytest.raises(ValueError, match="sample count must be >= 1"):
        random_points(_ball(2), 0, seed=1)
