"""Zero-forcing transmit precoding over a stack of effective channels.

Each cluster is served through its head user, the member with the largest
effective-channel norm.  The precoder inverts the M x M matrix whose row m
is the effective channel of cluster m's head, so each cluster's beam has
unit gain on its own head and zero gain on every other cluster's, then
scales all beams uniformly to spend the total power budget exactly.
"""

from __future__ import annotations

import numpy as np

CONDITION_LIMIT = 1e8


def cluster_heads(h_eff: np.ndarray, members) -> np.ndarray:
    """(P, M) user index of each cluster's head under each of P phases.

    ``h_eff`` is (P, N, M); ``members[m]`` holds cluster m's user indices.
    The head has the largest effective-channel norm; ties go to the lowest
    user index.
    """
    for m, mem in enumerate(members):
        if len(mem) == 0:
            raise ValueError(f"cluster {m} is empty")
    norms = np.linalg.norm(h_eff, axis=-1)
    return np.stack([mem[np.argmax(norms[:, mem], axis=1)] for mem in members], axis=1)


def zero_forcing(
    h_eff: np.ndarray,
    members,
    total_power,
    condition_limit: float = CONDITION_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing precoders for a stack of P effective-channel matrices.

    Returns ``(ok, w)``: ``ok`` (P,) marks the phases whose head matrix has
    a finite 2-norm condition number no larger than ``condition_limit``,
    and ``w`` (ok.sum(), M, M) holds their precoders, column m serving
    cluster m.  The unscaled solution W satisfies H W = I; every column is
    then multiplied by sqrt(P / sum_m ||w_m||^2) so the power constraint
    holds with equality.  ``total_power`` is one budget P for the stack or
    one per matrix, (P,); only that final scale reads it.
    """
    power = np.asarray(total_power, dtype=float)
    if not (power > 0).all():
        raise ValueError("total_power must be positive")
    n_clusters = h_eff.shape[-1]
    if len(members) != n_clusters:
        raise ValueError(
            f"ZF needs one antenna per cluster: {n_clusters} antennas vs "
            f"{len(members)} clusters"
        )
    heads = cluster_heads(h_eff, members)
    hmat = h_eff[np.arange(len(h_eff))[:, None], heads]
    # np.linalg.cond's 2-norm ratio, read off the singular values directly.
    sv = np.linalg.svd(hmat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    ok = np.isfinite(cond) & (cond <= condition_limit)
    hmat = hmat[ok]
    w = np.linalg.solve(
        hmat, np.broadcast_to(np.eye(n_clusters, dtype=complex), hmat.shape)
    )
    used = (np.abs(w) ** 2).reshape(len(w), n_clusters * n_clusters).sum(axis=1)
    w *= np.sqrt((power[ok] if power.ndim else power) / used)[:, None, None]
    if not np.isfinite(w.view(float)).all():
        raise ValueError("precoder contains non-finite entries")
    return ok, w
