"""Zero-forcing transmit precoding over a stack of effective channels.

Each cluster is served through its head user, the member with the largest
effective-channel norm.  The precoder inverts the M x M matrix whose row m
is the effective channel of cluster m's head, so each cluster's beam has
unit gain on its own head and zero gain on every other cluster's, then
scales all beams uniformly to spend the total power budget exactly.  The
member tables and budgets broadcast over the stack: one for every phase,
or one per phase.
"""

from __future__ import annotations

import numpy as np

CONDITION_LIMIT = 1e8


def member_table(members, width: int = 0) -> np.ndarray:
    """(M, L) table of cluster members, L the size of the largest cluster or ``width``.

    Row m holds ``members[m]`` in order, padded by repeating its first user.
    ``argmax`` returns the first of equal values, so a pad never wins.
    """
    for m, mem in enumerate(members):
        if len(mem) == 0:
            raise ValueError(f"cluster {m} is empty")
    width = max(width, *(len(mem) for mem in members))
    return np.array([[*mem, *[mem[0]] * (width - len(mem))] for mem in members], dtype=np.intp)


def cluster_heads(h_eff: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(P, M) user index of each cluster's head under each of P phases.

    ``h_eff`` is (P, N, M).  ``table`` is a :func:`member_table`, (M, L),
    or a stack of E of them, (E, M, L), which broadcasts over the phases:
    one table for every phase (E = 1) or one per phase (E = P).  The head
    has the largest effective-channel norm; ties go to the member listed
    first, the lowest user index.
    """
    norms = np.linalg.norm(h_eff, axis=-1)
    table = table.reshape(-1, *table.shape[-2:])
    best = np.argmax(norms[np.arange(len(h_eff))[:, None, None], table], axis=-1)
    return table[np.arange(len(table))[:, None], np.arange(table.shape[1]), best]


def zero_forcing(
    h_eff: np.ndarray,
    table: np.ndarray,
    total_power,
    condition_limit: float = CONDITION_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing precoders for a stack of P effective-channel matrices.

    ``table`` is a :func:`member_table` as :func:`cluster_heads` takes it.
    Returns ``(ok, w)``: ``ok`` (P,) marks the phases whose head matrix has
    a finite 2-norm condition number no larger than ``condition_limit``,
    and ``w`` (ok.sum(), M, M) holds their precoders, column m serving
    cluster m.  The unscaled solution W satisfies H W = I; every column is
    then multiplied by sqrt(P / sum_m ||w_m||^2) so the power constraint
    holds with equality.  ``total_power`` is a budget that broadcasts over
    the matrices, one for all or one per matrix; only that final scale
    reads it.
    """
    power = np.full(len(h_eff), total_power, dtype=float)
    if not (power > 0).all():
        raise ValueError("total_power must be positive")
    n_clusters = h_eff.shape[-1]
    if table.shape[-2] != n_clusters:
        raise ValueError(
            f"ZF needs one antenna per cluster: {n_clusters} antennas vs "
            f"{table.shape[-2]} clusters"
        )
    heads = cluster_heads(h_eff, table)
    hmat = h_eff[np.arange(len(h_eff))[:, None], heads]
    # np.linalg.cond's 2-norm ratio, read off the singular values directly.
    sv = np.linalg.svd(hmat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    ok = np.isfinite(cond) & (cond <= condition_limit)
    hmat = hmat[ok]
    w = np.linalg.inv(hmat)
    used = (np.abs(w) ** 2).reshape(len(w), n_clusters * n_clusters).sum(axis=1)
    w *= np.sqrt(power[ok] / used)[:, None, None]
    if not np.isfinite(w.view(float)).all():
        raise ValueError("precoder contains non-finite entries")
    return ok, w
