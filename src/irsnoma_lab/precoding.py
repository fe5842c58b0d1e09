"""Zero-forcing transmit precoding over a stack of effective channels.

Each cluster is served through its head user, the member with the largest
effective-channel norm.  The precoder inverts the M x M matrix whose row m
is the effective channel of cluster m's head, so each cluster's beam has
unit gain on its own head and zero gain on every other cluster's, then
scales all beams uniformly to spend the total power budget exactly.  Only
that scale reads the budget, so one inverse serves every budget.  The
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


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a (P, M, M) stack."""
    return (np.abs(a) ** 2).reshape(len(a), a.shape[1] * a.shape[2]).sum(axis=1)


def _condition_ok(hmat: np.ndarray, condition_limit: float) -> np.ndarray:
    """Whether each matrix's 2-norm condition number is finite and within the limit.

    ``np.linalg.cond``'s ratio, read off the singular values directly.
    """
    sv = np.linalg.svd(hmat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    return np.isfinite(cond) & (cond <= condition_limit)


def zf_inverse(
    h_eff: np.ndarray, table: np.ndarray, condition_limit: float = CONDITION_LIMIT
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled zero-forcing solutions for a stack of P effective-channel matrices.

    ``table`` is a :func:`member_table` as :func:`cluster_heads` takes it.
    Returns ``(ok, w, used)``: ``ok`` (P,) marks the phases whose head
    matrix has a finite 2-norm condition number no larger than
    ``condition_limit``; ``w`` (P, M, M) holds the solution W of H W = I
    of each of them, column m serving cluster m, and zeros on the other
    phases; ``used`` (P,) is sum_m ||w_m||^2 of each passing W, and 1
    elsewhere.  Nothing here reads a power budget, so one inverse serves
    every budget (:func:`scale_to_power`).

    The condition check reads the inverse first: cond_2(H) <= ||H||_F
    ||H^-1||_F, so a matrix whose bound is finite and at most half the
    limit passes without an SVD.  Only the others are decided by the
    singular-value ratio, as is every matrix of a stack in which one is
    exactly singular (``inv`` raises).  Both routes mark the same
    matrices and give the same bits.
    """
    n_clusters = h_eff.shape[-1]
    if table.shape[-2] != n_clusters:
        raise ValueError(
            f"ZF needs one antenna per cluster: {n_clusters} antennas vs "
            f"{table.shape[-2]} clusters"
        )
    heads = cluster_heads(h_eff, table)
    hmat = h_eff[np.arange(len(h_eff))[:, None], heads]
    try:
        # ``inv`` and the row sums work matrix by matrix, so the rows kept
        # below have the bits of the same calls on the kept matrices alone.
        w = np.linalg.inv(hmat)
    except np.linalg.LinAlgError:
        ok = _condition_ok(hmat, condition_limit)
        kept = np.linalg.inv(hmat[ok])
        w = np.zeros_like(hmat)
        used = np.ones(len(hmat))
        w[ok] = kept
        used[ok] = _squared_norms(kept)
        return ok, w, used
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        used = _squared_norms(w)
        bound = np.sqrt(_squared_norms(hmat) * used)
    # Half the limit leaves room for the rounding of both ``inv`` and
    # the SVD, so no matrix passed here could fail the exact test.
    ok = np.isfinite(bound) & (bound <= condition_limit / 2)
    near = ~ok
    if near.any():
        ok[near] = _condition_ok(hmat[near], condition_limit)
        failed = ~ok
        w[failed] = 0.0
        used[failed] = 1.0
    return ok, w, used


def scale_to_power(w: np.ndarray, used: np.ndarray, total_power) -> np.ndarray:
    """A copy of the :func:`zf_inverse` stack ``w`` that spends ``total_power``.

    Every column of matrix p is multiplied by sqrt(P / used[p]), so the
    power constraint holds with equality; ``total_power`` broadcasts over
    the matrices, one budget for all or one per matrix.  ``w`` itself is
    left as it is.
    """
    w = w * np.sqrt(total_power / used)[:, None, None]
    if not np.isfinite(w.view(float)).all():
        raise ValueError("precoder contains non-finite entries")
    return w

