"""Deterministic random inputs for checks and tests.

A splitmix64 stream expands one user seed into independent 64-bit
substreams, keyed by label, so every check draws the same matrices no
matter in which order (or on how many workers) the checks run. The
substream seeds feed numpy PCG64 generators for the actual sampling.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int):
    """Yield an endless splitmix64 sequence starting from ``state``."""
    z = state & _MASK64
    while True:
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        x = z
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        yield x


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def substream_seed(seed: int, label: str = "") -> int:
    """Fold a label into a seed and advance one splitmix step."""
    return next(splitmix64((seed & _MASK64) ^ _fnv1a64(label)))


def generator(seed: int, label: str = "") -> np.random.Generator:
    """numpy Generator on the (seed, label) substream."""
    return np.random.Generator(np.random.PCG64(substream_seed(seed, label)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random dense Hermitian matrix with unit-scale entries."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (x + x.conj().T)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR with phase fixing."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    # normalize column phases so the distribution does not inherit QR's sign bias
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_positive_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian matrix with spectrum drawn uniformly from [0.5, 4]."""
    u = random_unitary(rng, n)
    w = rng.uniform(0.5, 4.0, size=n)
    m = (u * w) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def random_state(rng: np.random.Generator, n: int, normalize: bool = True) -> np.ndarray:
    """Random complex vector, unit norm by default."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    if normalize:
        v = v / np.linalg.norm(v)
    return v


def random_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive coefficient sequence for inner-product specs,
    uniform on [0.2, 3]."""
    return rng.uniform(0.2, 3.0, size=n)
