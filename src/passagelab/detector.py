"""Detector parameterization: sensitivity profiles, bath-derived rates, reset.

A detector couples to the particle through a sensitivity profile chi(x). The
conditional Hamiltonian carries A*chi^2 and delta_shift*chi^2; the reset
channel applies sqrt(A)*chi. The two agree for indicator profiles (chi^2 =
chi) but are kept as distinct code paths for general profiles.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .core import SpatialGrid, WaveFunction
from .exceptions import ConfigError, ZeroOverlapError
from .propagator import ComplexPotentialField

__all__ = [
    "RectangularProfile",
    "TabulatedProfile",
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
class TabulatedProfile:
    """chi given by samples on the target grid, values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ConfigError("tabulated profile must be a 1-d array")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
            raise ConfigError("tabulated chi values must be finite and within [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def chi(self, grid: SpatialGrid) -> np.ndarray:
        if self.values.shape != (grid.n_points,):
            raise ConfigError("tabulated profile length does not match the grid")
        return self.values


@dataclass(frozen=True)
class DiscreteBathSpec:
    """N boson modes omega_n = omega_max*n/N with couplings g_n = -i G sqrt(omega_n/N)."""

    n_modes: int
    omega_max: float
    coupling_g: float
    omega_0: float

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ConfigError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.omega_max <= 0.0:
            raise ConfigError(f"omega_max must be positive, got {self.omega_max}")

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
        if self.decay_a < 0.0:
            raise ConfigError(f"decay rate must be >= 0, got {self.decay_a}")


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
    if tau < 0.0:
        raise ValueError(f"kappa is defined for tau >= 0, got {tau}")
    w0, wm, g = bath.omega_0, bath.omega_max, bath.coupling_g
    if mode == "discrete":
        wn = bath.mode_frequencies()
        return complex(np.sum(bath.coupling_sq() * np.exp(-1j * (wn - w0) * tau)))
    if mode != "continuum":
        raise ValueError(f"unknown kappa mode {mode!r}")
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
    """A sensitivity profile plus effective rates (direct or bath-derived)."""

    profile: RectangularProfile | TabulatedProfile
    decay_a: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.decay_a < 0.0:
            raise ConfigError(f"decay rate must be >= 0, got {self.decay_a}")

    @classmethod
    def from_bath(
        cls, profile: RectangularProfile | TabulatedProfile, bath: DiscreteBathSpec
    ) -> "DetectorSpec":
        rates = continuum_rates(bath)
        return cls(profile=profile, decay_a=rates.decay_a, shift=rates.shift)

    def potential_field(self, grid: SpatialGrid) -> ComplexPotentialField:
        chi_sq = self.profile.chi(grid) ** 2
        return ComplexPotentialField(
            grid=grid,
            decay_rate=self.decay_a * chi_sq,
            real_shift=self.shift * chi_sq,
        )

    def reset_factor(self, grid: SpatialGrid) -> np.ndarray:
        """sqrt(A)*chi(x): the map from a conditional state to its reset state."""
        return np.sqrt(self.decay_a) * self.profile.chi(grid)


def reset(psi_cond: WaveFunction, det: DetectorSpec) -> WaveFunction:
    """Post-detection state sqrt(A)*chi(x)*psi_cond, unnormalized.

    Its squared norm equals A * int chi^2 |psi|^2 dx, which is w1(t) for
    indicator profiles.
    """
    amps = det.reset_factor(psi_cond.grid) * psi_cond.amplitudes
    nsq = float(np.sum(np.abs(amps) ** 2) * psi_cond.grid.dx)
    if nsq < 1e-30:
        raise ZeroOverlapError(
            f"reset norm^2 = {nsq:.3e}; state has no weight inside the detector"
        )
    return WaveFunction(grid=psi_cond.grid, amplitudes=amps, time=psi_cond.time)
