"""Spatial grid, wave-function container, analytic Gaussian states, observables.

Conventions used throughout the package:

* all quantities are SI;
* the momentum dual of a grid is k_j = 2*pi*fftfreq(n, dx), so a state's
  momentum amplitudes are phi_j = dx/sqrt(2*pi) * exp(-i k_j x_min) * FFT(psi)_j
  and Parseval holds as sum |phi|^2 dk = sum |psi|^2 dx.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt
from numbers import Integral

import numpy as np

from .exceptions import ConfigError, GridError, GridTooNarrowError, ZeroNormError

__all__ = [
    "CESIUM_MASS",
    "HBAR",
    "GaussianPacketSpec",
    "Moments",
    "ParticleSpec",
    "SpatialGrid",
    "WaveFunction",
    "build_grid",
    "cesium",
    "free_sigma_x",
    "gaussian_free_state",
    "momentum_amplitudes",
    "observables",
]

HBAR = 1.054571817e-34  # J s
CESIUM_MASS = 2.2069e-25  # kg

_TAIL_TOL = 1e-10
_erfc = np.frompyfunc(erfc, 1, 1)  # math.erfc per element: numpy has no erfc
# working-set budget of one block of complex rows (kijowski chirp, oracle nodes)
_BLOCK_BYTES = 4_000_000
# the most terms one product sums. OpenBLAS sums an inner dimension above 128
# in a different order on one thread than on several, and a result would then
# depend on the thread count.
_MAX_BLOCK_NODES = 64
# the interpolation rule's first node count, its most nodes, and its
# tolerance on the predicted nodes relative to the largest value
_FIRST_NODES = 17
_MAX_NODES = 257
_INTERP_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _check_positive(**values: float) -> None:
    """ConfigError naming the first value that is not positive and finite."""
    for name, value in values.items():
        if not 0.0 < value < np.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value: int, minimum: int) -> None:
    """ConfigError unless value is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _five_smooth(n: int) -> bool:
    """True when n >= 1 has no prime factor above 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _five_smooth_from(m: int) -> int:
    """The smallest n >= m >= 1 with no prime factor above 5."""
    while not _five_smooth(m):
        m += 1
    return m


def _block_rows(n_cols: int) -> int:
    """Rows of n_cols complex values that fit one _BLOCK_BYTES block."""
    return max(1, _BLOCK_BYTES // (16 * n_cols))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, summed over chunks of at most _MAX_BLOCK_NODES inner terms in
    a fixed order."""
    out = a[:, :_MAX_BLOCK_NODES] @ b[:_MAX_BLOCK_NODES]
    for start in range(_MAX_BLOCK_NODES, a.shape[1], _MAX_BLOCK_NODES):
        out += a[:, start : start + _MAX_BLOCK_NODES] @ b[start : start + _MAX_BLOCK_NODES]
    return out


def _chebyshev_times(n_nodes: int, a: float, b: float) -> np.ndarray:
    """n_nodes Chebyshev-Lobatto nodes on [a, b], from b down to a: every
    other node of 2 n_nodes - 1, with the same bits."""
    return a + 0.5 * (b - a) * (1.0 + np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1)))


def _lagrange_rows(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """L_c(t_j), (len(t), len(nodes)): the Lagrange basis of the
    Chebyshev-Lobatto nodes at the times t, in the barycentric form (Berrut &
    Trefethen, SIAM Rev. 46, 501, 2004). A time on a node gets its unit row."""
    lam = (-1.0) ** np.arange(len(nodes))
    lam[[0, -1]] *= 0.5
    d = t[:, None] - nodes
    on = d == 0.0
    rows = lam / np.where(on, 1.0, d)
    rows /= np.sum(rows, axis=1, keepdims=True)
    hit = np.any(on, axis=1)
    rows[hit] = on[hit]
    return rows


def _interpolation_nodes(evaluate, a: float, b: float, limit: int, rate: float):
    """(nodes, f at the nodes) for f(t) on [a, b], or (None, None) where the
    caller falls back to its own limit points.

    evaluate(times) gives f at the times, one row each. The node count C
    starts at _FIRST_NODES. Each round evaluates f at the C - 1 nodes between
    the current ones, predicts them with the C-node interpolant P_C, and stops
    once max |predicted - direct| <= _INTERP_TOL max |f|, keeping all 2C - 1
    nodes (Trefethen, Approximation Theory and Approximation Practice, SIAM
    2013, ch. 8). A round that would need limit nodes or more, or more than
    _MAX_NODES, falls back. rate bounds how fast f's phases turn, in rad per
    unit t: the Chebyshev coefficients of e^{i rate t} on [a, b] do not decay
    before degree rate (b - a) / 2, so a window past the largest interpolant
    the check tests, or of zero length, falls back before any row is evaluated.
    """
    if not b > a or rate * (b - a) > _MAX_NODES - 1:
        return None, None
    g = None
    size = 2 * _FIRST_NODES - 1
    while size < limit and size <= _MAX_NODES:
        nodes = _chebyshev_times(size, a, b)
        if g is None:
            g = evaluate(nodes[::2])
        fresh = evaluate(nodes[1::2])
        predicted = _product(_lagrange_rows(nodes[1::2], nodes[::2]), g)
        residual = np.max(np.abs(predicted - fresh))
        g = np.insert(g, range(1, len(g)), fresh, axis=0)  # the nodes' order
        if residual <= _INTERP_TOL * np.max(np.abs(g)):
            return nodes, g
        size = 2 * size - 1
    return None, None


@dataclass(frozen=True)
class ParticleSpec:
    """Point particle: mass and the value of hbar it is propagated with."""

    mass: float
    hbar: float = HBAR

    def __post_init__(self) -> None:
        _check_positive(mass=self.mass, hbar=self.hbar)


def cesium() -> ParticleSpec:
    return ParticleSpec(mass=CESIUM_MASS)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid of n_points >= 2 points, where n_points has no
    prime factor above 5.

    numpy's FFT of a row costs about 15 ns per point for every such size
    (1920, 5400, 8192, ...), so a grid, or a run of a grid's points, can be
    as long as its physics needs instead of the next power of two.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise GridError("grid bounds must be finite")
        if self.x_max <= self.x_min:
            raise GridError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        n = self.n_points
        if n < 2 or not _five_smooth(n):
            raise GridError(f"n_points must be >= 2 with no prime factor above 5, got {n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        return _readonly(self.x_min + self.dx * np.arange(self.n_points))

    @property
    def k(self) -> np.ndarray:
        # momentum dual: dk = 2 pi / (n dx)
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx))

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dx)


def build_grid(x_min: float, x_max: float, n_points: int) -> SpatialGrid:
    return SpatialGrid(x_min=float(x_min), x_max=float(x_max), n_points=int(n_points))


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a SpatialGrid with a timestamp."""

    grid: SpatialGrid
    amplitudes: np.ndarray
    time: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_points,):
            raise GridError(
                f"amplitudes shape {amps.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ConfigError("WaveFunction amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Minimal-uncertainty Gaussian: |psi|^2 has std sigma_x at t=0."""

    center_x0: float
    sigma_x: float
    mean_velocity_v0: float

    def __post_init__(self) -> None:
        _check_positive(sigma_x=self.sigma_x)
        for name in ("center_x0", "mean_velocity_v0"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Moments:
    norm_sq: float
    mean_x: float
    std_x: float
    mean_p: float
    std_p: float


def free_sigma_x(packet: GaussianPacketSpec, particle: ParticleSpec, t: float) -> float:
    """Analytic position spread of the freely evolving packet at time t."""
    s0 = packet.sigma_x
    return s0 * np.sqrt(1.0 + (particle.hbar * t / (2.0 * particle.mass * s0 * s0)) ** 2)


def _tail_gate(
    packet: GaussianPacketSpec, particle: ParticleSpec, t: float | np.ndarray, grid: SpatialGrid
) -> None:
    """Raise GridTooNarrowError with the first tail mass outside the grid that
    exceeds _TAIL_TOL, over the time t or an array of times."""
    t = np.atleast_1d(t)
    center = packet.center_x0 + packet.mean_velocity_v0 * t
    width = free_sigma_x(packet, particle, t) * sqrt(2.0)
    tail = 0.5 * _erfc((center - grid.x_min) / width) + 0.5 * _erfc((grid.x_max - center) / width)
    over = tail[tail > _TAIL_TOL]
    if over.size:
        raise GridTooNarrowError(
            f"packet tail mass {over[0]:.2e} outside grid [{grid.x_min}, {grid.x_max}] "
            f"exceeds {_TAIL_TOL}"
        )


def _free_packet(
    packet: GaussianPacketSpec, particle: ParticleSpec, t: float | np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Closed-form free packet at the points x: t is a scalar, or a column of
    times (shape (B, 1)) giving one row per time."""
    m, hb = particle.mass, particle.hbar
    s0 = packet.sigma_x
    k0 = m * packet.mean_velocity_v0 / hb
    # hbar t / 2 m s0^2 stays real until it is multiplied by 1j, so a column
    # of times rounds like a scalar time and the oracle's rows equal
    # gaussian_free_state's
    alpha = 1.0 + 1j * (hb * t / (2.0 * m * s0 * s0))
    xc = x - packet.center_x0 - packet.mean_velocity_v0 * t
    return (
        (2.0 * np.pi * s0 * s0) ** -0.25
        / np.sqrt(alpha)
        * np.exp(
            -xc * xc / (4.0 * s0 * s0 * alpha)
            + 1j * k0 * (x - packet.center_x0)
            - 1j * (hb * k0 * k0 * t / (2.0 * m))
        )
    )


def gaussian_free_state(
    packet: GaussianPacketSpec,
    particle: ParticleSpec,
    t: float,
    grid: SpatialGrid,
) -> WaveFunction:
    """Freely evolved minimal-uncertainty packet, evaluated analytically at t.

    At t=0 this is the defining Gaussian with std sigma_x, mean velocity v0.
    Raises GridTooNarrowError if the truncated tail probability exceeds 1e-10.
    """
    _tail_gate(packet, particle, t, grid)
    amps = _free_packet(packet, particle, t, grid.x)
    return WaveFunction(grid=grid, amplitudes=amps, time=t)


def momentum_amplitudes(psi: WaveFunction) -> np.ndarray:
    """Momentum-space amplitudes phi(k) on grid.k, Parseval-consistent."""
    g = psi.grid
    return (
        g.dx
        / np.sqrt(2.0 * np.pi)
        * np.exp(-1j * g.k * g.x_min)
        * np.fft.fft(psi.amplitudes)
    )


def observables(psi: WaveFunction, hbar: float = HBAR) -> Moments:
    """Norm and position/momentum moments of a (possibly unnormalized) state."""
    g = psi.grid
    dens = np.abs(psi.amplitudes) ** 2
    nsq = float(np.sum(dens) * g.dx)
    if nsq < 1e-300:
        raise ZeroNormError("state has zero norm, moments undefined")
    x = g.x
    mean_x = float(np.sum(x * dens) * g.dx / nsq)
    var_x = float(np.sum((x - mean_x) ** 2 * dens) * g.dx / nsq)
    phi = momentum_amplitudes(psi)
    kdens = np.abs(phi) ** 2
    ksum = float(np.sum(kdens) * g.dk)
    mean_k = float(np.sum(g.k * kdens) * g.dk / ksum)
    var_k = float(np.sum((g.k - mean_k) ** 2 * kdens) * g.dk / ksum)
    return Moments(
        norm_sq=nsq,
        mean_x=mean_x,
        std_x=np.sqrt(max(var_x, 0.0)),
        mean_p=hbar * mean_k,
        std_p=hbar * np.sqrt(max(var_k, 0.0)),
    )
