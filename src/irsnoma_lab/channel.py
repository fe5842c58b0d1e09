"""Scenario geometry, Rician channel sampling, and IRS reflection states.

The base station talks to single-antenna users only through the reflecting
surface (the direct link is blocked), so a channel realization consists of
the BS-to-surface matrix ``G`` (K elements x M antennas), one K-vector per
user for the surface-to-user hop, and the receiver noise variance.  Each
surface element applies a unit-modulus phase shift drawn from a ``2**B``
point grid.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class DegenerateGeometryError(ValueError):
    """Raised when two nodes coincide and the path loss is undefined."""


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed, a SeedSequence, or a Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert dBm to watts: 10**((p_dbm - 30) / 10)."""
    if not np.isfinite(p_dbm):
        raise ValueError(f"non-finite power level {p_dbm!r} dBm")
    return float(10.0 ** ((p_dbm - 30.0) / 10.0))


@dataclass(frozen=True, eq=False)
class ServiceRegion:
    """Axis-aligned service area with an optional excluded obstacle polygon.

    ``bounds`` is (xmin, ymin, xmax, ymax) in meters.  The obstacle, when
    present, is an (n, 2) vertex array treated as a hole: points strictly
    inside it do not belong to the region.
    """

    bounds: tuple[float, float, float, float] = (-50.0, -50.0, 50.0, 50.0)
    obstacle: np.ndarray | None = None

    def __post_init__(self):
        for name, value in zip(("xmin", "ymin", "xmax", "ymax"), self.bounds):
            if not math.isfinite(value):
                raise ValueError(f"region bound {name} {value!r} is not finite")
        xmin, ymin, xmax, ymax = self.bounds
        if not (xmax > xmin and ymax > ymin):
            raise ValueError(f"empty region bounds {self.bounds}")
        if self.obstacle is not None:
            poly = np.asarray(self.obstacle, dtype=float)
            if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
                raise ValueError("obstacle polygon needs at least 3 (x, y) vertices")
            if not np.isfinite(poly).all():
                i = int(np.flatnonzero(~np.isfinite(poly).all(axis=1))[0])
                raise ValueError(f"obstacle vertex {i} {poly[i].tolist()} is not finite")
            object.__setattr__(self, "obstacle", poly)
            object.__setattr__(self, "_edges", _crossing_edges(poly))

    def contains(self, point) -> bool:
        """True if ``point`` lies inside the bounds and outside the obstacle."""
        return bool(self.contains_many(np.asarray(point, dtype=float)[None, :2])[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Membership of each row of an (n, 2) array of points."""
        pts = np.asarray(points, dtype=float)
        xmin, ymin, xmax, ymax = self.bounds
        ok = (
            (pts[:, 0] >= xmin)
            & (pts[:, 0] <= xmax)
            & (pts[:, 1] >= ymin)
            & (pts[:, 1] <= ymax)
        )
        if self.obstacle is not None:
            ok &= ~_points_in_polygon(pts[:, 0], pts[:, 1], self._edges)
        return ok


def _crossing_edges(poly: np.ndarray) -> tuple[np.ndarray, ...]:
    """The polygon's non-flat edges (x0, y0) -> (x1, y1) as (E, 1) columns.

    In order: y0, x0, x1 - x0, y1 - y0, min(y0, y1), max(y0, y1),
    max(x0, x1) and whether the edge is vertical.  A flat edge (y0 == y1)
    never crosses the ray cast's half-open y range and is left out.
    """
    rows = []
    x0, y0 = poly[-1].tolist()
    for x1, y1 in poly.tolist():
        if y0 != y1:
            rows.append((y0, x0, x1 - x0, y1 - y0, min(y0, y1), max(y0, y1), max(x0, x1), x0 == x1))
        x0, y0 = x1, y1
    cols = np.array(rows, dtype=float).reshape(-1, 8).T[:, :, None]
    return (*cols[:7], cols[7] != 0.0)


def _points_in_polygon(x: np.ndarray, y: np.ndarray, edges) -> np.ndarray:
    # Ray casting against every edge at once: (E, 1) edges by (n,) points,
    # the crossings XOR-reduced over the edges.  Boundary points count as
    # inside (conservatively excluded from the service region).  A vertical
    # edge's crossing is x0 unless y - y0 overflows, so only then does its
    # own rule decide anything.
    y0, x0, dx, dy, y_lo, y_hi, x_hi, vertical = edges
    hit = (y_lo < y) & (y <= y_hi) & (x <= x_hi)
    hit &= vertical | (x <= (y - y0) * dx / dy + x0)
    return np.logical_xor.reduce(hit, axis=0)


def default_region() -> ServiceRegion:
    """100 m x 100 m box with a rectangular obstacle screening the BS side."""
    return ServiceRegion(
        bounds=(-50.0, -50.0, 50.0, 50.0),
        obstacle=np.array(
            [[-15.0, -50.0], [15.0, -50.0], [15.0, -35.0], [-15.0, -35.0]]
        ),
    )


def _as_position3(p, name: str) -> np.ndarray:
    v = np.asarray(p, dtype=float).ravel()
    if v.size == 2:
        v = np.array([v[0], v[1], 0.0])
    if v.size != 3:
        raise ValueError(f"{name} must be a 2- or 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} {v.tolist()} is not finite")
    return v


@dataclass(frozen=True, eq=False)
class ScenarioGeometry:
    """Node placement for one scenario: BS, reflecting surface, and users.

    The surface sits at the origin by default and its physical extent is
    ignored (all elements share one position).  User positions may be given
    in 2-D (z = 0) or 3-D and must lie inside ``region``.
    """

    bs_position: np.ndarray
    user_positions: np.ndarray
    irs_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    region: ServiceRegion = field(default_factory=default_region)

    def __post_init__(self):
        for name in ("bs_position", "irs_position"):
            object.__setattr__(self, name, _as_position3(getattr(self, name), name))
        users = np.asarray([
            _as_position3(u, f"user {i}")
            for i, u in enumerate(np.atleast_2d(self.user_positions))
        ])
        if users.shape[0] < 1:
            raise ValueError("at least one user is required")
        object.__setattr__(self, "user_positions", users)
        outside = np.flatnonzero(~self.region.contains_many(users[:, :2]))
        if outside.size:
            i = int(outside[0])
            raise ValueError(
                f"user {i} at {users[i, :2].tolist()} is outside the service region"
            )

    @property
    def n_users(self) -> int:
        return int(self.user_positions.shape[0])

    def with_user_positions(self, positions) -> "ScenarioGeometry":
        """Same BS/IRS/region with replaced user positions (mobility update)."""
        return ScenarioGeometry(
            bs_position=self.bs_position,
            user_positions=positions,
            irs_position=self.irs_position,
            region=self.region,
        )


@dataclass(frozen=True)
class RicianConfig:
    """Fading and noise parameters.

    ``k_factor`` is the linear Rice factor (ratio of line-of-sight to
    scattered power); the BS-to-surface and surface-to-user hops use
    separate path-loss exponents.  ``reference_loss_db`` is the loss at 1 m.
    """

    k_factor: float = 10.0 ** 0.3  # 3 dB
    path_loss_exponent_g: float = 2.2
    path_loss_exponent_h: float = 2.8
    reference_loss_db: float = 30.0
    noise_power_dbm: float = -80.0

    def __post_init__(self):
        if not np.isfinite(self.k_factor) or self.k_factor < 0:
            raise ValueError(f"k_factor must be finite and >= 0, got {self.k_factor}")
        for name in ("path_loss_exponent_g", "path_loss_exponent_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.reference_loss_db):
            raise ValueError(f"reference_loss_db must be finite, got {self.reference_loss_db}")
        if self.noise_variance <= 0:
            raise ValueError("noise power must convert to a positive variance")

    @property
    def noise_variance(self) -> float:
        """Receiver noise variance in watts."""
        return dbm_to_watts(self.noise_power_dbm)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One block-static draw of all channels for a time slot.

    ``g_matrix`` is the (K, M) BS-to-surface matrix; ``user_channels`` holds
    one surface-to-user K-vector per row.
    """

    g_matrix: np.ndarray
    user_channels: np.ndarray
    noise_variance: float

    def __post_init__(self):
        g = np.asarray(self.g_matrix, dtype=complex)
        h = np.atleast_2d(np.asarray(self.user_channels, dtype=complex))
        if g.ndim != 2:
            raise ValueError(f"g_matrix must be 2-D, got shape {g.shape}")
        if h.shape[1] != g.shape[0]:
            raise ValueError(
                f"user channels have {h.shape[1]} elements but g_matrix has "
                f"{g.shape[0]} rows"
            )
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        object.__setattr__(self, "g_matrix", g)
        object.__setattr__(self, "user_channels", h)

    @property
    def k_elements(self) -> int:
        return int(self.g_matrix.shape[0])

    @property
    def n_antennas(self) -> int:
        return int(self.g_matrix.shape[1])

    @property
    def n_users(self) -> int:
        return int(self.user_channels.shape[0])

    def slice_elements(self, k: int) -> "ChannelRealization":
        """Restrict to the first ``k`` surface elements.

        Slicing the same realization keeps element-count comparisons paired:
        smaller surfaces are prefixes of larger ones rather than fresh draws.
        """
        if not 1 <= k <= self.k_elements:
            raise ValueError(f"k must be in [1, {self.k_elements}], got {k}")
        return ChannelRealization(
            g_matrix=self.g_matrix[:k, :],
            user_channels=self.user_channels[:, :k],
            noise_variance=self.noise_variance,
        )


@dataclass(frozen=True)
class PhaseConfig:
    """Discrete reflection state: one index per element under B resolution bits.

    Element k applies e^{j * 2*pi*n_k / 2**B} with unit amplitude.
    """

    indices: tuple[int, ...]
    resolution_bits: int

    def __post_init__(self):
        if self.resolution_bits < 1:
            raise ValueError("resolution_bits must be >= 1")
        idx = tuple(int(n) for n in self.indices)
        levels = 1 << self.resolution_bits
        for n in idx:
            if not 0 <= n < levels:
                raise ValueError(
                    f"phase index {n} out of range [0, {levels - 1}] "
                    f"for B={self.resolution_bits}"
                )
        object.__setattr__(self, "indices", idx)

    @property
    def n_levels(self) -> int:
        return 1 << self.resolution_bits

    def shifted(self, delta: int) -> "PhaseConfig":
        """All indices incremented by ``delta`` modulo the level count."""
        lv = self.n_levels
        return PhaseConfig(
            tuple((n + delta) % lv for n in self.indices), self.resolution_bits
        )


@functools.cache
def phase_coefficients(resolution_bits: int) -> np.ndarray:
    """The read-only table of the 2**B coefficients e^{j*2*pi*n/2**B}, n = 0, ..., 2**B - 1.

    Built once per B; every caller indexes it, so the coefficients have
    one definition.
    """
    levels = 1 << resolution_bits
    table = np.exp(1j * (TWO_PI * np.arange(levels, dtype=float) / levels))
    table.flags.writeable = False
    return table


def reflection_coefficients(phase: PhaseConfig) -> np.ndarray:
    """Unit-modulus reflection coefficients e^{j*theta_k}, theta_k = 2*pi*n_k/2**B."""
    return phase_coefficients(phase.resolution_bits)[np.asarray(phase.indices, dtype=np.intp)]


def effective_channels_batch(
    channels: ChannelRealization, phase_idx, resolution_bits: int, users=None
) -> np.ndarray:
    """Effective channels under a stack of phase index rows; shape (P, n, M).

    Row u of slice p is the post-surface channel h_u^H diag(coeffs) G seen
    by user u under ``PhaseConfig(phase_idx[p], resolution_bits)``, that is
    sum_k conj(h_uk) * coeffs_k * G[k, :].  ``phase_idx`` is a (P, K)
    integer array; ``users`` selects the channel rows (all users by
    default).  Channels stacked on a leading run axis, (P, N, K) users and
    (P, K, M) surface, give slice p from run p's channels.
    """
    idx = np.asarray(phase_idx)
    levels = 1 << resolution_bits
    if idx.ndim != 2 or idx.shape[1] != channels.k_elements:
        raise ValueError(
            f"phase indices must be (P, {channels.k_elements}), got {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= levels):
        raise ValueError(f"phase index out of range [0, {levels - 1}]")
    coeffs = phase_coefficients(resolution_bits)[idx]
    h = channels.user_channels
    if users is not None:
        h = h[..., np.asarray(users, dtype=int), :]
    # A leading run axis of 1 for one realization; the ufunc rounds some
    # complex products differently when it broadcasts a 2-D operand.
    h = np.conj(h).reshape(-1, *h.shape[-2:])
    return (h * coeffs[:, None, :]) @ channels.g_matrix


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_channels(
    geometry: ScenarioGeometry,
    cfg: RicianConfig,
    seed,
    *,
    k_elements: int,
    n_antennas: int,
) -> ChannelRealization:
    """Draw one Rician-faded channel realization for the given geometry.

    Every entry carries a distance-dependent path-loss power
    ``10**(-ref_db/10) * d**(-exponent)`` and a Rician small-scale factor
    sqrt(K/(K+1)) + sqrt(1/(K+1)) * CN(0, 1).  The line-of-sight term is
    phase-aligned (surface extent is ignored, so no per-element geometry
    phase exists) and fully deterministic; only the scattered part consumes
    randomness, so identical seeds give identical realizations.
    """
    if k_elements < 1 or n_antennas < 1:
        raise ValueError("k_elements and n_antennas must be positive")
    rng = as_rng(seed)

    d_g = float(np.linalg.norm(geometry.bs_position - geometry.irs_position))
    d_users = np.linalg.norm(
        geometry.user_positions - geometry.irs_position[None, :], axis=1
    )
    if d_g <= 0.0:
        raise DegenerateGeometryError("BS and surface coincide (zero distance)")
    if np.any(d_users <= 0.0):
        bad = int(np.argmin(d_users))
        raise DegenerateGeometryError(
            f"user {bad} coincides with the surface (zero distance)"
        )

    ref = 10.0 ** (-cfg.reference_loss_db / 10.0)
    pl_g = ref * d_g ** (-cfg.path_loss_exponent_g)
    pl_users = ref * d_users ** (-cfg.path_loss_exponent_h)

    k = cfg.k_factor
    los = np.sqrt(k / (k + 1.0))
    nlos = np.sqrt(1.0 / (k + 1.0))

    g = np.sqrt(pl_g) * (los + nlos * _complex_normal(rng, (k_elements, n_antennas)))
    users = np.empty((geometry.n_users, k_elements), dtype=complex)
    for i in range(geometry.n_users):
        users[i] = np.sqrt(pl_users[i]) * (
            los + nlos * _complex_normal(rng, k_elements)
        )
    return ChannelRealization(
        g_matrix=g, user_channels=users, noise_variance=cfg.noise_variance
    )


# ---------------------------------------------------------------------------
# JSON scenario interface
# ---------------------------------------------------------------------------

def _region_to_json(region: ServiceRegion) -> dict:
    doc = {"bounds": [float(v) for v in region.bounds]}
    if region.obstacle is not None:
        doc["obstacle"] = [[float(x), float(y)] for x, y in region.obstacle]
    return doc


def _region_from_json(doc) -> ServiceRegion:
    if doc is None:
        return default_region()
    obstacle = doc.get("obstacle")
    return ServiceRegion(
        bounds=tuple(float(v) for v in doc["bounds"]),
        obstacle=np.asarray(obstacle, dtype=float) if obstacle else None,
    )


def scenario_to_json(
    geometry: ScenarioGeometry, cfg: RicianConfig, seed: int
) -> str:
    """Serialize a scenario to the JSON document understood by :func:`load_scenario`."""
    doc = {
        "bs_position": geometry.bs_position.tolist(),
        "irs_position": geometry.irs_position.tolist(),
        "users": [u.tolist() for u in geometry.user_positions],
        "region": _region_to_json(geometry.region),
        "k_factor_db": float(10.0 * np.log10(cfg.k_factor)) if cfg.k_factor > 0 else -np.inf,
        "path_loss_exponent_g": cfg.path_loss_exponent_g,
        "path_loss_exponent_h": cfg.path_loss_exponent_h,
        "noise_dbm": cfg.noise_power_dbm,
        "reference_loss_db": cfg.reference_loss_db,
        "seed": int(seed),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_scenario(path) -> tuple[ScenarioGeometry, RicianConfig, int]:
    """Load (geometry, fading config, seed) from a UTF-8 JSON document.

    Recognized keys: ``bs_position``, ``irs_position``, ``users``, ``region``,
    ``k_factor_db``, ``path_loss_exponent_g``, ``path_loss_exponent_h``,
    ``noise_dbm``, ``seed`` (plus optional ``reference_loss_db``).
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    geometry = ScenarioGeometry(
        bs_position=doc["bs_position"],
        user_positions=doc["users"],
        irs_position=doc.get("irs_position", np.zeros(3)),
        region=_region_from_json(doc.get("region")),
    )
    defaults = RicianConfig()
    k_db = doc.get("k_factor_db")
    cfg = RicianConfig(
        k_factor=10.0 ** (float(k_db) / 10.0) if k_db is not None else defaults.k_factor,
        path_loss_exponent_g=float(
            doc.get("path_loss_exponent_g", defaults.path_loss_exponent_g)
        ),
        path_loss_exponent_h=float(
            doc.get("path_loss_exponent_h", defaults.path_loss_exponent_h)
        ),
        reference_loss_db=float(
            doc.get("reference_loss_db", defaults.reference_loss_db)
        ),
        noise_power_dbm=float(doc.get("noise_dbm", defaults.noise_power_dbm)),
    )
    return geometry, cfg, int(doc.get("seed", 0))
