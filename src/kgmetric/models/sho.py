"""Harmonic oscillator: x'' + omega^2 x = 0, the one-mode sanity model.

Everything here has a closed form, which makes the oscillator the reference
point for the generic machinery: the basic complex solutions exp(-i eps
omega t), their positive inner products, and the contrast with the indefinite
doubled-system product on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError, NonPositiveAError
from ..spectral import SpectralDecomposition, _as_array
from ..two_component import FieldState


@dataclass(frozen=True)
class ShoModel:
    """Oscillator with a constant positive frequency omega."""

    omega: float = 1.0

    def __post_init__(self):
        if not self.omega > 0.0:
            raise InvalidParameterError(f"omega must be positive, got {self.omega}")

    def d_spec(self) -> SpectralDecomposition:
        """D = omega^2 as a one-mode spectral resolution."""
        return SpectralDecomposition(
            eigenvalues=np.array([self.omega * self.omega]),
            eigenvectors=np.eye(1, dtype=complex),
        )


def sho_basic_solution(omega: float, eps: int, t: float) -> FieldState:
    """The basic solution exp(-i eps omega t) sampled at time t, eps = +-1."""
    if eps not in (1, -1):
        raise InvalidParameterError(f"eps must be +1 or -1, got {eps!r}")
    if not omega > 0.0:
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    z = np.exp(-1j * eps * omega * t)
    return FieldState(
        psi=np.array([z]),
        psi_dot=np.array([-1j * eps * omega * z]),
    )


def _as_pair(x) -> tuple[complex, complex]:
    pair = _as_array(np.append(x.psi, x.psi_dot) if isinstance(x, FieldState) else x, "sample")
    if pair.shape != (2,):
        raise InvalidParameterError(f"oscillator samples are (x, xdot) pairs, got {pair.shape}")
    return complex(pair[0]), complex(pair[1])


def sho_inner(x1, x2, omega: float, l_plus: float = 1.0, l_minus: float = 0.0) -> complex:
    """Invariant positive product of two oscillator solutions.

    x1, x2 are (x, xdot) samples taken at the same time, either plain pairs
    or one-dimensional FieldStates. Returns

        (1/2) [ l_plus (x1* x2 + xdot1* xdot2 / omega^2)
                + i l_minus (x1* xdot2 - xdot1* x2) / omega ]

    which is time-independent on solutions and positive-definite exactly
    when l_plus + l_minus > 0 and l_plus - l_minus > 0.
    """
    if not (l_plus + l_minus > 0.0 and l_plus - l_minus > 0.0):
        raise NonPositiveAError(
            f"need l_plus +- l_minus > 0, got l_plus={l_plus}, l_minus={l_minus}"
        )
    if not omega > 0.0:
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    p1, d1 = _as_pair(x1)
    p2, d2 = _as_pair(x2)
    sym = np.conj(p1) * p2 + np.conj(d1) * d2 / (omega * omega)
    skew = (np.conj(p1) * d2 - np.conj(d1) * p2) / omega
    return complex(0.5 * (l_plus * sym + 1j * l_minus * skew))
