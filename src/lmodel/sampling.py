"""Gaps of all vertex-edge pairs at once: on the sample grid and in refinement.

The gap of vertex v against edge {i, j} needs only the three distances
between v, i and j.  :func:`grid_minima` therefore builds, for each block
of grid samples, the table of distances between the vertex pairs that the
probed pairs use, and reads every pair's gap off three of its columns.  It
gives every pair's smallest sample, which detection turns into a lower
bound on the pair's gap over the whole domain, and every sampled local
minimum; the minima come block by block, unsorted.  Detection runs this
on a coarse grid, a subset of the samples, for the smallest samples only,
then on the whole grid for the pairs the coarse grid keeps, and drops the
pairs that stay far apart.
:func:`bracket_gap` evaluates the gaps at the probe times of a batch of
refinement brackets, with one kernel run per coordinate expression shape,
each shape's kernel compiled once per batch
(:func:`lmodel.numeric.merged_kernel`).  Both give, bit for bit, what
evaluating pair by pair and vertex by vertex gives.

``lmodel.numeric.GRID_BLOCK`` bounds the memory the grid stage holds
beyond the grid itself.  A block's distance table
(:func:`lmodel.numeric.distances`) holds at most ``GRID_BLOCK`` doubles,
and so does a chunk of gaps read off it; with the chunk's temporaries
and its comparison masks, a few such arrays live at once, so memory grows
in proportion to ``GRID_BLOCK``, and the number of blocks and chunks that
the Python loop runs falls in proportion.  On a seeded dixon1 K(14,14),
``tracemalloc`` sees detection peak at 1.7 MB with ``1 << 13``, 2.5 MB
with ``1 << 15`` and 3.6 MB with ``1 << 16``, the grid of 0.9 MB
included.
"""
from __future__ import annotations

import math
from array import array

import numpy as np

from . import numeric
from .exprs import ExprDomainError
from .numeric import distances, evaluate, merged_kernel, split_constants

__all__ = ["slack", "grid_minima", "bracket_gap"]


def slack(xv, yv, xi, yi, xj, yj):
    """The slack, elementwise: the one gap kernel, shared by every caller."""
    return np.hypot(xv - xi, yv - yi) + np.hypot(xv - xj, yv - yj) - np.hypot(xi - xj, yi - yj)


def grid_minima(
    xs: np.ndarray, ys: np.ndarray, roles: np.ndarray, ts: np.ndarray, minima: bool = True
):
    """Each pair's smallest sampled gap, and every sampled local minimum.

    ``xs``, ``ys`` hold the vertices' grid samples, one row per vertex.  The
    gap needs only vertex-to-vertex distances, so each block of samples
    builds the table D of the vertex pairs the probed pairs use and takes
    ``D[v,i] + D[v,j] - D[i,j]``, a chunk of pairs at a time.  hypot(a, b)
    equals hypot(-a, -b) and the sum keeps ``slack``'s operand order, so the
    gaps are ``slack``'s bit for bit.  A sample is a local minimum when it is
    below its left neighbour and not above its right one, so a plateau
    counts at its left edge and the endpoints count; each block reaches one
    sample past both of its edges for the neighbours.

    Returns the smallest sample per pair (NaN if any sample is NaN), then
    the minima as codes ``pair index * samples + sample index``, in the
    order the blocks find them: block by block, and within a block in code
    order.  Nothing here sorts them; detection puts only the ones it
    refines into code order.  With ``minima`` false no minimum is sought,
    and none is returned.
    """
    n_samples, n_pairs = len(ts), roles.shape[1]
    v, i, j = roles
    near = np.zeros((len(xs), len(xs)), dtype=bool)
    for a, b in ((v, i), (v, j), (i, j)):
        near[np.minimum(a, b), np.maximum(a, b)] = True
    ua, ub = np.nonzero(near)
    col = np.zeros(near.shape, dtype=np.intp)  # the table's column of each vertex pair
    col[ua, ub] = col[ub, ua] = np.arange(len(ua))
    budget = numeric.GRID_BLOCK
    width = max(1, min(n_samples, budget // max(len(ua), 1) - 2))  # samples per block
    chunk = max(1, budget // (width + 2))

    low = np.full(n_pairs, math.inf)
    found = array("q")  # the minima, in grid order
    for lo in range(0, n_samples, width):
        hi = min(lo + width, n_samples)
        e0, e1 = max(lo - 1, 0), min(hi + 1, n_samples)
        dist = distances(xs, ys, ua, ub, slice(e0, e1))
        for s in range(0, n_pairs, chunk):
            k = slice(s, s + chunk)
            gs = dist.take(col[v[k], i[k]], axis=0)
            gs += dist.take(col[v[k], j[k]], axis=0)
            gs -= dist.take(col[i[k], j[k]], axis=0)
            np.minimum(low[k], gs.min(axis=1), out=low[k])  # a NaN stays
            if minima:
                # neighbours along the flattened rows; where one row meets the
                # next the comparison stands for the grid's missing neighbour
                w, flat = e1 - e0, gs.ravel()
                falls, rises = flat[1:] < flat[:-1], flat[:-1] <= flat[1:]
                if lo == 0:
                    falls[w - 1 :: w] = True
                if hi == n_samples:
                    rises[w - 1 :: w] = True
                is_min = np.ones(len(flat), dtype=bool)
                is_min[1:] = falls
                is_min[:-1] &= rises
                rows = is_min.reshape(gs.shape)
                if lo > 0:  # the samples the neighbouring blocks own
                    rows[:, 0] = False
                if hi < n_samples:
                    rows[:, -1] = False
                r, c = np.divmod(np.flatnonzero(is_min), w)
                codes = r * n_samples + c + (s * n_samples + e0)
                found.frombytes(codes.astype(np.int64).tobytes())
            del gs
        del dist
    return low, np.frombuffer(found, dtype=np.int64)


def bracket_gap(motion: list, roles: np.ndarray, seed: np.ndarray, errors: dict):
    """``f`` for :func:`lmodel.collide.golden_minimize` over one batch of brackets.

    ``motion[w]`` holds vertex w's two coordinate expressions, and ``roles``
    the vertex indices (v, i, j) of each bracket's pair, one row per role.
    The coordinates of the batch's vertices are split into shapes and
    constants (:func:`lmodel.numeric.split_constants`) once, and every shape
    is compiled once into a kernel merged over the brackets of every vertex
    that uses it.  A call runs every kernel once, all with numpy's
    overflow, divide and invalid flags raising.  A raised flag means some
    probe left the domain: the call is redone vertex by vertex, and then
    point by point for a vertex that fails, so a bracket whose probe
    leaves the domain is charged its first error in ``errors`` and reads
    NaN from then on.
    """
    m = roles.shape[1]
    slots = roles.ravel()  # role-major: slot r*m + k is role r of bracket k
    used = np.flatnonzero(np.bincount(slots)).tolist()
    vertex_slots = {w: np.flatnonzero(slots == w) for w in used}
    shapes = {w: [split_constants(e) for e in motion[w]] for w in used}
    members: dict = {}  # shape -> [(vertex, axis)]
    for w in used:
        for axis in (0, 1):
            members.setdefault(shapes[w][axis][0], []).append((w, axis))
    merged = []  # (merged kernel, its slots in px|py, the brackets they probe)
    for shape, group in members.items():
        values = [shapes[w][axis][1] for w, axis in group]
        sizes = [len(vertex_slots[w]) for w, _ in group]
        at = np.concatenate([vertex_slots[w] + axis * 3 * m for w, axis in group])
        # slot r*m + k of either coordinate is probed at t[k]
        merged.append((merged_kernel(shape, values, sizes), at, at % m))
    failed = np.zeros(m, dtype=bool)

    def by_vertex(t: np.ndarray, p: np.ndarray) -> dict:
        px, py = p.reshape(2, 3 * m)
        bad = {}
        for w, at in vertex_slots.items():
            xe, ye = motion[w]
            try:
                px[at] = evaluate(xe, t[at])
                py[at] = evaluate(ye, t[at])
            except ExprDomainError:
                # find every slot that raises, in the order x, y
                for q in at.tolist():
                    try:
                        px[q] = evaluate(xe, float(t[q]))
                        py[q] = evaluate(ye, float(t[q]))
                    except ExprDomainError as err:
                        bad[q] = err
        return bad

    def f(x: np.ndarray) -> np.ndarray:
        # a failed bracket is probed at its seed, a grid time known to evaluate
        t = np.where(failed, seed, x)
        p = np.zeros(6 * m)
        bad = {}
        try:
            # the probe times lie in the domain, so they are finite, and from
            # finite times a failing node raises a flag
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                for kernel, at, k in merged:
                    p[at] = kernel(t[k])
        except FloatingPointError:
            bad = by_vertex(np.tile(t, 3), p)
        px, py = p.reshape(2, 3, m)
        y = slack(px[0], py[0], px[1], py[1], px[2], py[2])
        # ascending slots give a bracket's lowest role first: v, then i, then j
        for q in sorted(bad):
            errors.setdefault(q % m, bad[q])
        failed[list(errors)] = True
        y[failed] = math.nan
        return y

    return f
