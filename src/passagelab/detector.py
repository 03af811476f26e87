"""Detector parameterization: the detector region, bath-derived rates, reset.

A detector is a decay rate A (and a shift delta) switched on over its region:
the indicator chi(x) of a rectangular profile. The conditional Hamiltonian
carries A*chi and delta*chi; the reset channel applies sqrt(A)*chi.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .core import SpatialGrid, WaveFunction, _check_count, _check_positive
from .exceptions import ConfigError, ZeroOverlapError
from .propagator import ComplexPotentialField

__all__ = [
    "RectangularProfile",
    "DiscreteBathSpec",
    "ContinuumRates",
    "DetectorSpec",
    "continuum_rates",
    "kappa",
    "reset",
]


@dataclass(frozen=True)
class RectangularProfile:
    """chi = 1 on [a, b), 0 elsewhere. Left-closed so a grid-aligned edge point counts.

    A grid point within 1e-6 dx of an edge is on it: dx = (x_max - x_min)/n
    rounds, so an edge placed on a grid point can miss it by an ulp.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise ConfigError(f"rectangular profile needs b > a, got [{self.a}, {self.b}]")

    def chi(self, grid: SpatialGrid) -> np.ndarray:
        x, tol = grid.x, 1e-6 * grid.dx
        return ((x >= self.a - tol) & (x < self.b - tol)).astype(float)


@dataclass(frozen=True)
class DiscreteBathSpec:
    """N boson modes omega_n = omega_max*n/N with couplings g_n = -i G sqrt(omega_n/N)."""

    n_modes: int
    omega_max: float
    coupling_g: float
    omega_0: float

    def __post_init__(self) -> None:
        _check_count("n_modes", self.n_modes, 1)
        _check_positive(omega_max=self.omega_max)
        for name in ("coupling_g", "omega_0"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

    def mode_frequencies(self) -> np.ndarray:
        n = np.arange(1, self.n_modes + 1, dtype=float)
        return self.omega_max * n / self.n_modes

    def coupling_sq(self) -> np.ndarray:
        # |g_n|^2 = G^2 omega_n / N
        return self.coupling_g**2 * self.mode_frequencies() / self.n_modes


@dataclass(frozen=True)
class ContinuumRates:
    decay_a: float
    shift: float
    correlation_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay_a < np.inf:
            raise ConfigError(f"decay_a must be >= 0 and finite, got {self.decay_a}")


def continuum_rates(bath: DiscreteBathSpec) -> ContinuumRates:
    """Closed-form A, delta_shift, tau_c of the dense-spectrum limit."""
    w0, wm, g = bath.omega_0, bath.omega_max, bath.coupling_g
    if wm <= w0:
        raise ConfigError(
            f"continuum rates need omega_max > omega_0, got {wm} <= {w0}"
        )
    a = 2.0 * np.pi * g * g * w0 / wm
    shift = 2.0 * g * g * (w0 / wm * np.log(w0 / (wm - w0)) - 1.0)
    return ContinuumRates(decay_a=a, shift=shift, correlation_time=1.0 / w0)


def kappa(bath: DiscreteBathSpec, tau: float, mode: str = "discrete") -> complex:
    """Bath correlation function kappa(tau) in the rotating frame of omega_0.

    mode="discrete": the finite sum over modes. mode="continuum": the closed
    form of the dense-spectrum limit, with a series branch near tau=0.
    """
    if not 0.0 <= tau < np.inf:
        raise ConfigError(f"kappa is defined for finite tau >= 0, got {tau}")
    w0, wm, g = bath.omega_0, bath.omega_max, bath.coupling_g
    if mode == "discrete":
        wn = bath.mode_frequencies()
        return complex(np.sum(bath.coupling_sq() * np.exp(-1j * (wn - w0) * tau)))
    if mode != "continuum":
        raise ConfigError(f"unknown kappa mode {mode!r}")
    a = wm - w0
    if abs(wm * tau) < 1e-3:
        # series of [(1+i wm t) e^{-i a t} - e^{i w0 t}]/t^2 around t=0
        total = 0.0j
        for n in (2, 3, 4, 5):
            cn = (
                (-1j * a) ** n / factorial(n)
                + 1j * wm * (-1j * a) ** (n - 1) / factorial(n - 1)
                - (1j * w0) ** n / factorial(n)
            )
            total += cn * tau ** (n - 2)
        return complex(g * g / wm * total)
    val = ((1.0 + 1j * wm * tau) * np.exp(-1j * a * tau) - np.exp(1j * w0 * tau)) / (
        tau * tau
    )
    return complex(g * g / wm * val)


@dataclass(frozen=True)
class DetectorSpec:
    """A rectangular detector region plus its effective rates."""

    profile: RectangularProfile
    decay_a: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.profile, RectangularProfile):
            name = type(self.profile).__name__
            raise ConfigError(f"detector profile must be a RectangularProfile, got {name}")
        if not 0.0 <= self.decay_a < np.inf:
            raise ConfigError(f"decay_a must be >= 0 and finite, got {self.decay_a}")

    def potential_field(self, grid: SpatialGrid) -> ComplexPotentialField:
        chi = self.profile.chi(grid)
        return ComplexPotentialField(
            grid=grid,
            decay_rate=self.decay_a * chi,
            real_shift=self.shift * chi,
        )

    def reset_factor(self, grid: SpatialGrid) -> np.ndarray:
        """sqrt(A)*chi(x): the map from a conditional state to its reset state."""
        return np.sqrt(self.decay_a) * self.profile.chi(grid)


def reset(psi_cond: WaveFunction, det: DetectorSpec) -> WaveFunction:
    """Post-detection state sqrt(A)*chi(x)*psi_cond, unnormalized.

    Its squared norm equals A * int chi |psi|^2 dx, which is w1(t).
    """
    amps = det.reset_factor(psi_cond.grid) * psi_cond.amplitudes
    nsq = float(np.sum(np.abs(amps) ** 2) * psi_cond.grid.dx)
    if nsq < 1e-30:
        raise ZeroOverlapError(
            f"reset norm^2 = {nsq:.3e}; state has no weight inside the detector"
        )
    return WaveFunction(grid=psi_cond.grid, amplitudes=amps, time=psi_cond.time)
