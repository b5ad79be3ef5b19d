"""Deterministic point samples inside a web chart's domain ball: a lattice,
or seeded points uniform in the ball drawn from Python's `random.Random`
(not numpy.random, whose import loads its generators and OpenSSL)."""

from __future__ import annotations

import itertools
import random

import numpy as np

from .web import WebChart


def grid_points(web: WebChart, k: int) -> np.ndarray:
    """k^n lattice filling the cube inscribed in the domain ball.

    The cube has half-side radius/sqrt(n) so every lattice point lies in
    the closed ball; k = 1 returns the center alone.
    """
    if k < 1:
        raise ValueError("grid resolution must be >= 1")
    n = web.dim
    half = web.radius / np.sqrt(n)
    if k == 1:
        axes = [np.array([0.0])] * n
    else:
        axes = [np.linspace(-half, half, k)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts + web.center


def random_points(web: WebChart, count: int, seed: int) -> np.ndarray:
    """`count` points drawn uniformly from the domain ball, seeded.

    The draws are `random.Random(seed).random()` doubles, 2*ceil(n/2) + 1
    a point, taken point by point, so a sample is a prefix of any larger
    one with the same seed.  Box-Muller turns the first 2*ceil(n/2) into
    n independent normals, whose direction is uniform on the sphere; the
    last, U, gives the radius radius*U^(1/n).  CPython keeps `random()`'s
    sequence for a seed fixed across versions.  Samples, and so `--random`
    reports, differ from those of geoweb versions that drew them with
    numpy.random.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    n = web.dim
    half = (n + 1) // 2
    width = 2 * half + 1
    # the result first: a sample too large to hold fails before any draw
    pts = np.empty((count, n))
    rng = random.Random(seed)
    draws = itertools.starmap(rng.random, itertools.repeat((), count * width))
    u = np.fromiter(draws, float, count * width).reshape(count, width)
    # 1 - U lies in (0, 1], so the log is finite
    rho = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
    theta = (2.0 * np.pi) * u[:, half:2 * half]
    np.multiply(rho, np.cos(theta), out=pts[:, :half])
    np.multiply(rho[:, :n - half], np.sin(theta[:, :n - half]),
                out=pts[:, half:])
    pts *= (web.radius * u[:, -1] ** (1.0 / n)
            / np.linalg.norm(pts, axis=1))[:, None]
    pts += web.center
    return pts
