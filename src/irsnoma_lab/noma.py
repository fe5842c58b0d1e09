"""SINR, rate, and feasibility evaluation for clustered NOMA downlink.

Per-user SINR (own signal, user p of cluster m, channel row h):

    num   = |h . w_m * a_p|^2
    intra = sum_{l in cluster, l != p} |h . w_m * a_l|^2
    inter = sum_{g != m} |h . w_g|^2          (incoherent, default)
          = |h . sum_{g != m} w_g|^2          (coherent, literal form)
    sinr  = num / (intra + inter + noise)

Cross-decoding SINR (user q decoding p's signal) is the same expression on
q's channel row.  Rates are Shannon: R = log2(1 + sinr).  SIC succeeds when
every later-decoded user a can decode every earlier user b at b's own rate:
R_{a->b} >= R_{b->b}.

Power coefficients live on the unit simplex per cluster.  By default they
enter inside the squared magnitude as written above ("amplitude" domain);
the "power" domain (num proportional to a_p, not a_p^2) is available as a
flag.

:func:`evaluate_batch` scores a grid of phase configs and power splits on
one scenario, :func:`evaluate_powers` the same grid at several power
budgets from one precode, and :func:`evaluate_points` one point on each of
E scenarios of one size.  All run one body, which reads the cluster layout
of a :class:`ScenarioStack`: a grid is a one-run stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, effective_channels_batch
from .precoding import member_table, scale_to_power, zf_inverse

ALPHA_SUM_TOL = 1e-12
SIC_RATE_TOL = 1e-12

INTERFERENCE_MODELS = ("incoherent", "coherent")
ALPHA_DOMAINS = ("amplitude", "power")


def _check_simplex(m: int, alphas: np.ndarray):
    """Raise unless every row of cluster m's coefficients lies on the unit simplex."""
    if (alphas < 0).any():
        raise ValueError(f"cluster {m}: negative power coefficient")
    if (np.abs(alphas.sum(axis=-1) - 1.0) > ALPHA_SUM_TOL).any():
        raise ValueError(f"cluster {m}: power coefficients do not sum to 1")


def oma_tdma_sum_rate(gains, total_power: float, noise_variance: float) -> float:
    """TDMA baseline: each user gets a 1/n time share at full power.

    ``gains`` are per-user scalar channel amplitudes |g_u| (the caller
    optimizes phases per slot); the baseline rate is
    sum_u (1/n) log2(1 + P |g_u|^2 / noise).
    """
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.size < 1:
        raise ValueError("at least one user required")
    snr = total_power * g**2 / noise_variance
    return float(np.mean(np.log2(1.0 + snr)))


# ---------------------------------------------------------------------------
# Evaluation of the discrete search space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """Fixed per-slot context: channels, cluster membership, budget, flags.

    Construction fixes the members, size and first decoding slot of each
    cluster; the decoding slots run through the clusters one after another.
    A power split is one (N,) coefficient row over those slots: cluster m's
    entries are contiguous and in decoding position.  ``qos_floors``
    becomes one floor per user.  The scorers read the layout of a
    :class:`ScenarioStack`.
    """

    channels: ChannelRealization
    assignment: tuple[int, ...]
    total_power: float
    qos_floors: float | np.ndarray = 0.0
    interference_model: str = "incoherent"
    alpha_domain: str = "amplitude"
    members: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cluster_sizes: tuple[int, ...] = field(init=False, repr=False)
    cluster_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        assignment = tuple(int(c) for c in self.assignment)
        n_users = self.channels.n_users
        if len(assignment) != n_users:
            raise ValueError("assignment length != number of users")
        if min(assignment) < 0:
            raise ValueError("cluster ids must be non-negative")
        n_clusters = max(assignment) + 1
        if self.channels.n_antennas != n_clusters:
            raise ValueError(
                f"ZF needs one antenna per cluster: {self.channels.n_antennas} "
                f"antennas vs {n_clusters} clusters"
            )
        for m in range(n_clusters):
            if m not in assignment:
                raise ValueError(f"cluster {m} has no users")
        if self.total_power <= 0:
            raise ValueError("total_power must be positive")
        if self.interference_model not in INTERFERENCE_MODELS:
            raise ValueError(f"unknown interference model {self.interference_model!r}")
        if self.alpha_domain not in ALPHA_DOMAINS:
            raise ValueError(f"unknown alpha domain {self.alpha_domain!r}")
        floors = np.full(n_users, self.qos_floors, dtype=float)
        if (floors < 0).any():
            raise ValueError("SINR floors must be non-negative")

        user_cluster = np.array(assignment)
        members = tuple(np.flatnonzero(user_cluster == m) for m in range(n_clusters))
        sizes = tuple(len(mem) for mem in members)
        for name, value in (
            ("assignment", assignment),
            ("qos_floors", floors),
            ("members", members),
            ("cluster_sizes", sizes),
            ("cluster_starts", np.cumsum((0, *sizes[:-1]))),
        ):
            object.__setattr__(self, name, value)

    @property
    def n_clusters(self) -> int:
        return len(self.members)

    def split_tuples(self, row) -> tuple[tuple, ...]:
        """Per-cluster tuples of an (N,) row in decoding slots: a split's
        coefficients or a decoding order's users, as Python scalars."""
        parts = np.split(np.asarray(row), self.cluster_starts[1:])
        return tuple(tuple(part.tolist()) for part in parts)


@dataclass(frozen=True, eq=False)
class StackedChannels:
    """The channels of E scenarios on a leading run axis: ``g_matrix`` (E, K, M),
    ``user_channels`` (E, N, K) and ``noise_variance`` (E, 1)."""

    g_matrix: np.ndarray
    user_channels: np.ndarray
    noise_variance: np.ndarray

    @property
    def k_elements(self) -> int:
        return int(self.g_matrix.shape[-2])


class ScenarioStack:
    """E scenarios that share N, M, K and both flags: the layout every scorer reads.

    The scenarios may differ in channels, assignment, occupancy, floors,
    noise and power.  ``user_cluster`` (E, N) is each user's cluster, and
    cluster m's slots start at ``cluster_starts[e, m]``.  The scorer's
    planes are slot-major, (N, rows, splits), and so is the layout it reads,
    one column per run: slot k serves cluster ``slot_beam[k, e]`` (N, E);
    ``same_slots`` (N, N, E, 1) marks slots j != k of one cluster;
    ``other_slot_beams`` (N, E, M - 1) lists the beams of every other
    cluster; through ``sic_later_at`` and ``sic_earlier_at``, slot
    later[i, e] decodes the signal of slot earlier[i, e].  Member tables
    are padded to the widest cluster by repeating a member, which never
    wins the head ``argmax``, and SIC pairs to the most pairs by self-pairs
    (slot 0 decoding its own signal), whose check repeats the own rate and
    never fails.  A scenario listed more than once (the same object) is
    stacked once, and its rows are taken by index.
    """

    def __init__(self, scenarios):
        self.scenarios = tuple(scenarios)
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        # Each distinct scenario once; runs that repeat one take its rows by index.
        distinct = {id(s): s for s in self.scenarios}
        scenarios = list(distinct.values())
        index = None
        if len(scenarios) < len(self.scenarios):
            position = {key: i for i, key in enumerate(distinct)}
            index = [position[id(s)] for s in self.scenarios]

        def take(rows):  # one row per distinct scenario -> one per run
            rows = np.array(rows)
            return rows if index is None else rows[index]

        def size(s):
            c = s.channels
            return (c.n_users, c.n_antennas, c.k_elements, s.interference_model, s.alpha_domain)

        first = scenarios[0]
        for s in scenarios[1:]:
            if size(s) != size(first):
                raise ValueError(
                    "stacked scenarios must share users, clusters, elements and flags: "
                    f"{size(first)} vs {size(s)}"
                )

        n_users, n_clusters = first.channels.n_users, first.n_clusters
        n_runs = len(self.scenarios)
        slot = np.arange(n_users)
        self.user_cluster = take([s.assignment for s in scenarios])
        self.slot_beam = np.ascontiguousarray(np.sort(self.user_cluster, axis=1).T)
        self.same_slots = (
            (self.slot_beam[:, None] == self.slot_beam) & (slot[:, None] != slot)[..., None]
        )[..., None]
        # Cluster c's slots see the beams 0, ..., c - 1, c + 1, ..., M - 1.
        beams = np.arange(n_clusters - 1)
        self.other_slot_beams = beams + (beams >= self.slot_beam[..., None])
        # Slot j decodes the signal of every earlier slot i of its cluster.
        pairs = [
            [(j, i) for start, n in zip(s.cluster_starts, s.cluster_sizes)
             for j in range(start + 1, start + n) for i in range(start, j)]
            for s in scenarios
        ]
        n_pairs = max(map(len, pairs))
        padded = [p + [(0, 0)] * (n_pairs - len(p)) for p in pairs]
        sic = take(padded).astype(np.intp, copy=False).reshape(n_runs, n_pairs, 2)
        later, earlier = np.ascontiguousarray(sic.T)  # (pairs, E) each
        width = max(max(s.cluster_sizes) for s in scenarios)
        self.member_table = take([member_table(s.members, width) for s in scenarios])
        self.cluster_starts = take([s.cluster_starts for s in scenarios])
        self.qos_floors = take([s.qos_floors for s in scenarios])
        self.total_power = take([float(s.total_power) for s in scenarios])
        self.channels = StackedChannels(
            take([s.channels.g_matrix for s in scenarios]),
            take([s.channels.user_channels for s in scenarios]),
            take([s.channels.noise_variance for s in scenarios])[:, None],
        )
        self.interference_model = first.interference_model
        self.alpha_domain = first.alpha_domain
        # How the scorer indexes the layout.  Row e of its arrays reads run
        # e's layout, except in a one-run stack, whose layout serves every
        # row: the P phase rows of a grid take no per-run gather.
        if n_runs == 1:
            every = slice(None)
            self.run_index = 0
            self.own_beam_at = (every, every, self.user_cluster[0])
            self.sic_later_at = (later[:, 0],)
            self.sic_earlier_at = (earlier[:, 0],)
        else:
            runs = np.arange(n_runs)
            self.run_index = runs
            self.own_beam_at = (runs[:, None, None], np.arange(n_clusters)[:, None],
                                self.user_cluster[:, None])
            self.sic_later_at = (later, runs)
            self.sic_earlier_at = (earlier, runs)

    def __len__(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True, eq=False)
class GridScores:
    """Scores of every (phase, split) point of a grid, or of E paired points.

    ``sum_rate`` and ``feasible`` are (P, S) for a grid and (E,) for paired
    points; ``own_gains`` is (P, N) or (E, N), and so is ``order``: at
    row p the user in decoding slot k is ``order[p, k]``.  A phase whose
    combined channel is ill-conditioned scores rate 0 and is infeasible at
    every split, and its own gains are NaN.
    """

    sum_rate: np.ndarray
    feasible: np.ndarray
    own_gains: np.ndarray
    order: np.ndarray


def _split_weights(stack: ScenarioStack, alphas, rows: str) -> np.ndarray:
    """SINR weights of the coefficient rows, each cluster checked on the unit simplex.

    ``alphas`` is (S, N) on a one-run stack, every row in its slots, or
    (E, N), row e in run e's slots; ``rows`` names the first axis in the
    shape error.
    """
    alphas = np.asarray(alphas, dtype=float)
    n_users = stack.user_cluster.shape[1]
    if alphas.ndim != 2 or alphas.shape[1] != n_users:
        raise ValueError(f"splits must be an ({rows}, {n_users}) array, got {alphas.shape}")
    # One screen over every cluster of every row; only splits that fail it
    # are checked cluster by cluster, which raises the first failing row's
    # first failing cluster.  Half the tolerance covers the rounding by which
    # reduceat's sums can differ from each cluster's own sum (a few ulps).
    starts = stack.cluster_starts
    flat = starts + np.arange(0, alphas.size, n_users)[:, None]
    sums = np.add.reduceat(alphas.ravel(), flat.ravel())
    if alphas.min(initial=0.0) < 0 or np.abs(sums - 1.0).max(initial=0.0) > ALPHA_SUM_TOL / 2:
        for row, row_starts in zip(alphas, np.broadcast_to(starts, flat.shape)):
            for m, part in enumerate(np.split(row, row_starts[1:])):
                _check_simplex(m, part)
    return alphas * alphas if stack.alpha_domain == "amplitude" else alphas


def _scalar_abs2(z: np.ndarray) -> np.ndarray:
    """``float(np.abs(z_i) ** 2)`` per entry, rounded as on a numpy scalar.

    A numpy scalar's ``** 2`` calls libm ``pow``, which differs from the
    array square (``x * x``) in rare last bits; Python floats call ``pow``
    too, and so does ``float_power``'s float64 loop, entry by entry.  A
    finite entry whose square overflows raises, as the scalar power does.
    """
    with np.errstate(over="raise"):
        return np.float_power(np.abs(z), 2.0)


def _plane_sum(planes: np.ndarray) -> np.ndarray:
    """Sum the (N, rows, splits) ``planes`` over N, with the bits of numpy's
    last-axis sum of the same N terms.

    A last-axis sum adds fewer than 8 terms left to right, as a first-axis
    sum does in one pass over the planes, where the last-axis sum makes one
    inner-loop call per point.  From 8 terms numpy's pairwise sum regroups
    them, so the planes are summed as a user-last copy.
    """
    if len(planes) < 8:
        return np.sum(planes, axis=0)
    return np.sum(planes.transpose(1, 2, 0).copy(), axis=-1)


def evaluate_batch(scenario, phase_idx, alphas, resolution_bits: int) -> GridScores:
    """Score the grid ``phase_idx`` (P, K) x ``alphas`` (S, N) coefficient rows.

    ``scenario`` is a :class:`NetworkScenario` or its one-run
    :class:`ScenarioStack`; a caller that scores one scenario in chunks
    stacks it once.  This is :func:`evaluate_powers` at the scenario's own
    budget.  Effective channels, cluster heads, the ZF inverse and the
    condition check run once per phase, batched over the P phases; the
    check reads a bound off the inverse and takes an SVD only for phases
    near the limit (:func:`~irsnoma_lab.precoding.zf_inverse`).  Each
    cluster's users are decoded in ascending order of their own-beam gain
    (weakest first, lower index on ties), so cluster m's i-th entry of a
    row funds its i-th decoded user; SINRs, SIC and QoS then run for all S
    splits and all clusters at once on slot-major (N, P, S) planes.
    Every point equals the per-pair scalar evaluation bit for bit: each
    float step repeats its expression and summation order (``h_row @ W`` as
    a stacked row product, intra-cluster weights added in decoding order,
    inter-cluster power summed over the other beams only, own power squared
    as a numpy scalar, the rates summed over users in user order, grouped
    as numpy's last-axis sum groups them).
    """
    stack = scenario if isinstance(scenario, ScenarioStack) else ScenarioStack([scenario])
    (scores,) = evaluate_powers(stack, phase_idx, alphas, resolution_bits, stack.total_power)
    return scores


def evaluate_powers(stack: ScenarioStack, phase_idx, alphas, resolution_bits: int, powers):
    """Score one grid at each budget of ``powers``: one :class:`GridScores` each, in turn.

    ``stack`` is a one-run :class:`ScenarioStack`, and the grid is
    :func:`evaluate_batch`'s.  The grid is precoded once, since only the
    final ZF scale reads a budget; each budget then scales a copy of the
    inverse and scores the grid, which equals :func:`evaluate_batch` on the
    scenario with that ``total_power``, bit for bit.  The scores of one
    budget are yielded before the next is scored, so working memory does
    not grow with the number of budgets.
    """
    wts = _split_weights(stack, alphas, "S").T[:, None]
    return _score(stack, phase_idx, resolution_bits, wts, powers)


def evaluate_points(scenarios, phase_idx, alphas, resolution_bits: int) -> GridScores:
    """Score E points: phase row e with split row e on ``scenarios[e]``.

    ``scenarios`` is a :class:`ScenarioStack` or the E scenarios to stack;
    ``phase_idx`` is (E, K) and ``alphas`` (E, N), row e in run e's
    decoding slots.  Point e equals the 1 x 1 grid of
    :func:`evaluate_batch` on its own scenario, bit for bit.
    """
    stack = scenarios if isinstance(scenarios, ScenarioStack) else ScenarioStack(scenarios)
    if not len(stack) == len(phase_idx) == len(alphas):
        raise ValueError(
            f"{len(phase_idx)} phase rows, {len(alphas)} splits and {len(stack)} "
            "scenarios do not pair up"
        )
    wts = _split_weights(stack, alphas, "E").T[..., None]
    (grid,) = _score(stack, phase_idx, resolution_bits, wts, (stack.total_power,))
    return GridScores(grid.sum_rate[:, 0], grid.feasible[:, 0], grid.own_gains, grid.order)


def _score(stack: ScenarioStack, phase_idx, resolution_bits, wts, powers):
    """The body of every evaluator: precode once, then score each budget in ``powers``.

    Phase row p reads run p's layout, or the one run's in a one-run stack;
    ``wts`` is slot-major, (N, 1, S) for a grid's S splits and (N, E, 1)
    for one split per run.  A budget broadcasts over the phase rows.  The
    precode (effective channels, cluster heads, the unscaled ZF inverse,
    its condition check and the intra-cluster weights) reads no budget; per
    budget, a scaled copy of the inverse gives the gains, the decoding
    order and the (N, P, S) SINR, SIC and QoS planes.  The rates are
    scattered to user-major planes and summed over them with the bits of a
    last-axis ``np.sum`` (:func:`_plane_sum`).  The scorer reads the
    layout through the stack's index tuples, built once per stack.  Every
    row is scored; rows whose ZF failed are then set to rate 0, infeasible
    and NaN gains.
    """
    h_eff = effective_channels_batch(stack.channels, phase_idx, resolution_bits)
    n_phases, n_users, _ = h_eff.shape
    ok, w_unit, used = zf_inverse(h_eff, stack.member_table)
    failed = None if ok.all() else ~ok
    # lexsort does not broadcast its keys: a one-run grid's (1, N) row is
    # spread over its phase rows.
    assign = stack.user_cluster
    if len(assign) != n_phases:
        assign = np.broadcast_to(assign, (n_phases, n_users))
    # The other members' weights, added one by one in decoding order.
    intra = np.cumsum(wts[:, None] * stack.same_slots, axis=0)[-1]
    noise = stack.channels.noise_variance
    rows = np.arange(n_phases)
    column = rows[:, None]
    at_later, at_earlier = stack.sic_later_at, stack.sic_earlier_at

    def score(power) -> GridScores:
        w = scale_to_power(w_unit, used, power)
        own_beams = w[stack.own_beam_at].transpose(0, 2, 1)
        gains = np.abs(np.einsum("pum,pum->pu", h_eff, own_beams))
        if not np.isfinite(gains).all():
            raise ValueError("gains must be finite")
        # At phase p the user in slot k is order[p, k].
        order = np.lexsort((gains, assign))
        # Gathered through a C-ordered index, every plane comes out C-ordered.
        slot_user = np.ascontiguousarray(order.T)

        beams = (h_eff[..., None, :] @ w[:, None])[..., 0, :]  # (P, N, M): h_u . w_g
        own = _scalar_abs2(beams[rows, slot_user, stack.slot_beam])[..., None]
        others = beams[column, slot_user[..., None], stack.other_slot_beams]
        if stack.interference_model == "incoherent":
            inter = np.sum(np.abs(others) ** 2, axis=-1)[..., None]
        else:
            inter = _scalar_abs2(np.sum(others, axis=-1))[..., None]

        # sinr[k, p, s]: the user in slot k decoding its own signal.
        sinr = (wts * own) / (own * intra + inter + noise)
        rates = np.log2(1.0 + sinr)
        feasible = (sinr >= stack.qos_floors[stack.run_index, slot_user][..., None]).all(axis=0)
        if len(at_later[0]):
            # Slot later[i] decoding the signal of slot earlier[i], same cluster.
            own_l = own[at_later]
            tau = (wts[at_earlier] * own_l) / (
                own_l * intra[at_earlier] + inter[at_later] + noise
            )
            need = rates[at_earlier]
            floor = need - SIC_RATE_TOL * np.maximum(1.0, np.abs(need))
            feasible &= ~(np.log2(1.0 + tau) < floor).any(axis=0)
        user_rates = np.empty_like(rates)
        user_rates[slot_user, rows] = rates
        sum_rate = _plane_sum(user_rates)
        if failed is not None:
            sum_rate[failed] = 0.0
            feasible[failed] = False
            gains[failed] = np.nan
        return GridScores(sum_rate, feasible, gains, order)

    # A budget's temporaries are freed before the next budget is scored.
    for power in powers:
        yield score(power)
