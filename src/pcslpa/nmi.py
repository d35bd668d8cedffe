"""Overlapping-cover comparison via per-community binary membership entropies.

Each community is treated as a binary membership variable over the node
universe. For covers X and Y, the normalized conditional entropy of X given Y
averages, over communities X_k, the best (minimum) H(X_k|Y_l)/H(X_k) across
Y's communities, where a candidate Y_l only counts if its 2x2 contingency
satisfies h(11)+h(00) >= h(01)+h(10); otherwise the conditional entropy for
that candidate is left at H(X_k). The score is
1 - [H(X|Y)_norm + H(Y|X)_norm] / 2, in [0, 1]. Entropies are in bits; the
0·log 0 = 0 convention applies, and a zero-entropy community (all of the
universe, or none of it) contributes a normalized term of 0.

nmi_max is the NMI_max of McDaid, Greene & Hurley (arXiv:1110.2515): from the
same best H(X_k|Y) terms, the mutual information over the larger cover entropy.

cover_stats summarizes one cover's shape (community count, size range,
overlapping nodes) against the node count of its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .graph import Cover


def _h(p: float) -> float:
    return -p * log2(p) if p > 0.0 else 0.0


def _conditional_entropies(x: Cover, y: Cover, universe: set[int]):
    """(H(X_k) for each k, H(Y_l) for each l, H(X_k|Y) for each k, H(Y_l|X)
    for each l) over the universe.

    Communities are intersected with the universe first (nodes outside it are
    dropped; a community left empty still participates as a zero-entropy
    variable). The intersection counts are read from the covers' own
    memberships(v), for each node v of the universe.
    """
    if not universe:
        raise ValueError("universe must be non-empty")
    xs = [c & universe for c in x.communities]
    ys = [c & universe for c in y.communities]
    if not xs or not ys:
        raise ValueError("both covers need at least one community")
    n = len(universe)

    hx = [_h(len(c) / n) + _h((n - len(c)) / n) for c in xs]
    hy = [_h(len(c) / n) + _h((n - len(c)) / n) for c in ys]

    # membership indices are those of xs and ys
    inter: dict[tuple[int, int], int] = {}
    for v in universe:
        for k in x.memberships(v):
            for l in y.memberships(v):
                inter[k, l] = inter.get((k, l), 0) + 1

    # one sweep over community pairs feeds both directions: the acceptance
    # condition is symmetric and H(X_k|Y_l) = H_joint - H(Y_l)
    best_x = list(hx)
    best_y = list(hy)
    for k, ck in enumerate(xs):
        sk = len(ck)
        for l, cl in enumerate(ys):
            a = inter.get((k, l), 0)
            b = sk - a
            c = len(cl) - a
            d = n - a - b - c
            h11 = _h(a / n)
            h10 = _h(b / n)
            h01 = _h(c / n)
            h00 = _h(d / n)
            if h11 + h00 < h01 + h10:
                continue
            joint = h11 + h10 + h01 + h00
            cand_x = joint - hy[l]
            if cand_x < best_x[k]:
                best_x[k] = cand_x
            cand_y = joint - hx[k]
            if cand_y < best_y[l]:
                best_y[l] = cand_y
    return hx, hy, best_x, best_y


def overlapping_nmi(x: Cover, y: Cover, universe: set[int]) -> float:
    """Overlapping NMI between two covers over the given node universe.

    Symmetric in (x, y); 1.0 when the covers contain identical community sets.
    """
    hx, hy, best_x, best_y = _conditional_entropies(x, y, universe)
    norm_x = sum(0.0 if h <= 0.0 else b / h for h, b in zip(hx, best_x)) / len(hx)
    norm_y = sum(0.0 if h <= 0.0 else b / h for h, b in zip(hy, best_y)) / len(hy)
    value = 1.0 - 0.5 * (norm_x + norm_y)
    return min(1.0, max(0.0, value))


def nmi_max(x: Cover, y: Cover, universe: set[int]) -> float:
    """NMI_max between two covers over the given node universe:
    I(X:Y) = [H(X) - H(X|Y) + H(Y) - H(Y|X)] / 2 over max(H(X), H(Y)), where
    a cover's entropy sums its communities' and H(X|Y) sums H(X_k|Y).

    Symmetric in (x, y), in [0, 1]; 1.0 when neither cover has entropy.
    """
    hx, hy, best_x, best_y = _conditional_entropies(x, y, universe)
    most = max(sum(hx), sum(hy))
    if most <= 0.0:
        return 1.0
    mutual = 0.5 * ((sum(hx) - sum(best_x)) + (sum(hy) - sum(best_y)))
    return min(1.0, max(0.0, mutual / most))


@dataclass(frozen=True)
class CoverStats:
    community_count: int
    min_size: int
    max_size: int
    overlapping_nodes: int
    overlapping_fraction: float


def cover_stats(cover: Cover, n_total: int) -> CoverStats:
    """Summary statistics for a cover of a graph of n_total nodes.

    The overlapping fraction is the share of the n_total nodes that belong to
    two or more communities (0 for an empty graph).
    """
    sizes = [len(c) for c in cover.communities]
    overlapping = sum(1 for v in cover.nodes() if len(cover.memberships(v)) >= 2)
    return CoverStats(
        community_count=len(sizes),
        min_size=min(sizes) if sizes else 0,
        max_size=max(sizes) if sizes else 0,
        overlapping_nodes=overlapping,
        overlapping_fraction=overlapping / n_total if n_total else 0.0,
    )
