"""Instance generators, reference oracles and checkers, one copy each.

The tier-1 tests and the scripts ``stress_random.py``, ``plan_digest.py``
and ``detect_digest.py`` import them from here: instance generators
(static graphs with declared pairs, collision graphs, dixon1 parameters),
brute-force references (``brute_force_exists``, ``brute_force_split``,
``odd_girth``, ``two_colour_reference``, ``two_sat_refutation`` and
``refine_everything``), the families' predicted crossing sets, the
detection checkers ``outcome`` and ``check_bounds``, and ``run_python``,
which runs a fresh interpreter with lmodel importable.

The graphs built here carry static (constant) motions, so any vertex/edge
pair can be declared a "collision" freely; the planning layer only sees the
pair list and the incidence structure, never the geometry.  Only
``refine_everything``, ``outcome`` and ``check_bounds`` need numpy, and
import it when called.
"""
import itertools
import math
import os
import subprocess
import sys
import warnings

import pytest

import lmodel
from lmodel.cgraph import CollisionGraph, find_cycle
from lmodel.exprs import const
from lmodel.families import Dixon1Params
from lmodel.motion import CollisionPair, MovingGraph, edge_label

# the most digits int() reads from a string here; 0 where it has no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()

# a JSON integer literal one digit past that limit
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int() has no digit limit")
HUGE_INT = "9" * (DIGIT_LIMIT + 1)

# JSON nested past any recursion limit
TOO_DEEP = "[" * 100000


def static_graph(n_vertices, edges, prefix="n"):
    verts = tuple(f"{prefix}{i}" for i in range(n_vertices))
    motion = {v: (const(float(i)), const(0.0)) for i, v in enumerate(verts)}
    return MovingGraph(verts, tuple(edges), motion)


def collision_graph(nodes, label_arcs):
    """The CollisionGraph on ``nodes`` whose arcs are the (tail, head) label
    pairs ``label_arcs``."""
    nodes = tuple(nodes)
    index = {n: i for i, n in enumerate(nodes)}
    heads = [set() for _ in nodes]
    for u, v in label_arcs:
        heads[index[u]].add(index[v])
    return CollisionGraph(nodes, [sorted(ys) for ys in heads])


def class_cycles(c, partition):
    """``find_cycle`` on each class of ``partition`` as a node mask of c,
    upper then lower: (None, None) when both classes are acyclic."""
    return tuple(find_cycle(c.succ, bytearray([n in side for n in c.nodes])) for side in partition)


def fake_pairs(items):
    """CollisionPair records for (vertex, edge) tuples, witness pinned at 0."""
    return tuple(CollisionPair(v, tuple(e), 0.0, 0.0) for v, e in items)


def brute_force_exists(g, pairs):
    """Try every injective height order.  Reference oracle, exponential."""
    labels = g.edge_labels
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    cons = []
    for p in pairs:
        inc = [idx[lab] for lab in g.incident[p.vertex]]
        if inc:
            cons.append((idx[edge_label(p.edge)], inc))
    for perm in itertools.permutations(range(n)):
        ok = True
        for target, inc in cons:
            lo = min(perm[i] for i in inc)
            hi = max(perm[i] for i in inc)
            if lo <= perm[target] <= hi:
                ok = False
                break
        if ok:
            return True
    return False


def random_instance(rng, max_edges=8, max_pairs=10):
    """A static graph on 3 to 6 vertices and up to ``max_edges`` edges, with
    up to ``max_pairs`` random non-incident pairs."""
    nv = rng.randint(3, 6)
    possible = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    ne = rng.randint(1, min(max_edges, len(possible)))
    chosen = rng.sample(possible, ne)
    g = static_graph(nv, [(f"n{a}", f"n{b}") for a, b in chosen])
    cand = [(v, e) for v in g.vertices for e in g.edges if v not in e]
    k = rng.randint(0, min(len(cand), max_pairs)) if cand else 0
    return g, fake_pairs(rng.sample(cand, k))


def oriented_graph(rng, n, density):
    """Each pair of n nodes joined with probability ``density`` by one arc,
    either way: no two-cycles, so every node is a free choice, and dense
    enough that the split search backtracks."""
    succ = [[] for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                if rng.random() < 0.5:
                    succ[x].append(y)
                else:
                    succ[y].append(x)
    # row r gains its heads below r first, then those above: ascending
    return CollisionGraph([f"e{i}" for i in range(n)], succ)


def brute_force_split(c):
    """Is there any split of the nodes of c into two acyclic sides?  Tries
    every split, as bit masks.  Reference oracle, exponential."""
    n = len(c.nodes)
    pred = [0] * n  # bit x of pred[y]: an arc x -> y
    for x, ys in enumerate(c.succ):
        for y in ys:
            pred[y] |= 1 << x

    def acyclic(left):
        """Peel off nodes with no arc in from the rest until none are left."""
        while left:
            sources = sum(1 << x for x in range(n) if left >> x & 1 and not pred[x] & left)
            if not sources:
                return False
            left &= ~sources
        return True

    everything = (1 << n) - 1
    return any(acyclic(upper) and acyclic(everything & ~upper) for upper in range(1 << n))


def odd_girth(partners):
    """Length of a shortest odd cycle of the undirected graph joining each
    node x to ``partners[x]``, or None when it has none: the least distance
    from (s, 0) to (s, 1), over all s, in its bipartite double cover, whose
    node (x, p) reaches (y, 1 - p) for each y in ``partners[x]``."""
    best = None
    for s in range(len(partners)):
        dist = {(s, 0): 0}
        queue = [(s, 0)]
        for x, p in queue:  # grows while it is read
            for y in partners[x]:
                if (y, 1 - p) not in dist:
                    dist[y, 1 - p] = dist[x, p] + 1
                    queue.append((y, 1 - p))
        if (s, 1) in dist and (best is None or dist[s, 1] < best):
            best = dist[s, 1]
    return best


def refine_everything(g, roles, cfg):
    """Detection's probe with every bracket refined: the reference for pruning.

    Samples every vertex with its own loop over the evaluator, and refines
    every sampled minimum of every pair that evaluates on the grid.
    Returns what ``collide._probe`` returns, then the brackets, in code
    order, and the refined minimum of each.
    """
    import numpy as np

    from lmodel import collide, sampling
    from lmodel.exprs import ExprDomainError
    from lmodel.numeric import evaluate

    ts = np.linspace(g.domain[0], g.domain[1], cfg.samples)
    motion = [g.motion[w] for w in g.vertices]
    xs, ys = np.zeros((2, len(motion), len(ts)))
    grid_err, failures = {}, {}
    for w in range(len(motion)):
        try:
            xs[w], ys[w] = (evaluate(e, ts) for e in motion[w])
        except ExprDomainError as err:
            grid_err[w] = err
    for k, trio in enumerate(roles.T.tolist()):
        bad = [grid_err[w] for w in trio if w in grid_err]
        if bad:
            failures[k] = bad[0]
    found = np.sort(sampling.grid_minima(xs, ys, roles, ts)[1])
    found = found[[k not in failures for k in (found // len(ts)).tolist()]]
    best_t = np.full(roles.shape[1], ts[0])
    best_v = np.full(roles.shape[1], math.inf)
    minima = np.empty(len(found))
    for s in range(0, len(found), 2048):
        ks, i = np.divmod(found[s : s + 2048], len(ts))
        errors = {}
        f = sampling.bracket_gap(motion, roles[:, ks], ts[i], errors)
        lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, len(ts) - 1)]
        t_at, v_at = collide.golden_minimize(f, lo, hi, collide.REFINE_TOL, seeds=(ts[i],))
        minima[s : s + len(ks)] = v_at
        for k in sorted(errors):
            failures.setdefault(int(ks[k]), errors[k])
        for q in range(len(ks)):
            if v_at[q] < best_v[ks[q]]:
                best_t[ks[q]], best_v[ks[q]] = t_at[q], v_at[q]
    return best_t, best_v, failures, found, minima


def outcome(g, cfg=None):
    """The exact text of what ``detect_all`` returns, warns and raises."""
    from lmodel.collide import detect_all
    from lmodel.motion import DetectionError

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(detect_all(g, cfg))
        except DetectionError as err:
            out = repr([(v, e, repr(x), str(x), getattr(x, "t", None)) for v, e, x in err.failures])
    return out + "".join(f"\nwarning: {w.message}" for w in caught)


def check_bounds(g, cfg=None):
    """(pairs, pairs each grid keeps, brackets, brackets detection refines, faults).

    A fault is a bracket detection returns that is not one of a kept pair,
    or one of a kept pair that it does not return; a pair's bound on either
    grid above one of its refined minima; or a dropped pair that refines
    below ten times eps or below the clear margin of the kept pairs, or
    whose refinement leaves the domain.
    """
    import numpy as np

    from lmodel import collide

    cfg = cfg or collide.DetectionConfig()
    roles = collide._pair_roles(g)
    ts, _, found, kept, bounds = collide._grid_stage(g, roles, cfg)
    _, best, errors, every, minima = refine_everything(g, roles, cfg)
    pair = every // len(ts)
    refined = every[np.isin(pair, kept[-1])]
    counts = roles.shape[1], [len(k) for k in kept], len(every), len(refined)
    if np.sort(found).tolist() != refined.tolist():
        return (*counts, 1)
    # a bracket whose probe left the domain reads NaN, which no bound
    # exceeds, and so does the NaN bound of a pair a grid does not read
    bad = sum(np.count_nonzero(b[pair] > minima) for b in bounds)
    dropped = np.ones(roles.shape[1], dtype=bool)
    dropped[kept[-1]] = False
    clear = best[~dropped][best[~dropped] >= cfg.collide_eps].min(initial=math.inf)
    bad += np.count_nonzero(best[dropped] < max(collide.AMBIGUITY_FACTOR * cfg.collide_eps, clear))
    bad += sum(bool(dropped[k]) for k in errors)
    return (*counts, int(bad))


def run_python(*argv, cwd=None):
    """``python *argv`` run to its end in a fresh interpreter with lmodel's
    source on PYTHONPATH; its output as text."""
    src = os.path.dirname(os.path.dirname(lmodel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env, cwd=cwd
    )


def two_sat_refutation(edges, pairs):
    """A shortest proof that no choice of below or above for every pair
    avoids a two-cycle, or None when the two-cycles alone rule out no
    choice set.

    Each pair (v, e) is a variable whose two values are the choices of
    ``exists``: e below every edge f of ``edges`` at v, arcs e -> f, or
    above them all, arcs f -> e.  Two choices of different pairs conflict
    when an arc of one and an arc of the other close a directed two-cycle;
    then the first forces the other pair's other choice.  These
    implications make the implication graph of Aspvall, Plass & Tarjan
    (*IPL* 8, 1979): no choice set is left when some choice x reaches its
    negation and back.  Returns the steps of a shortest closed walk
    x -> ... -> not x -> ... -> x, each step as (choice, forced choice,
    the first choice's arc whose reverse the forced pair's other choice
    holds); a choice is (pair, above) and an arc (lower edge, upper edge).
    """
    choices = [(p, above) for p in sorted(pairs) for above in (False, True)]
    arcs = {
        ((v, e), above): {(f, e) if above else (e, f) for f in edges if v in f}
        for (v, e), above in choices
    }
    forced = {x: [] for x in choices}
    for x in choices:
        for y in choices:
            closing = sorted((u, w) for u, w in arcs[x] if (w, u) in arcs[y])
            if x[0] != y[0] and closing:
                forced[x].append(((y[0], not y[1]), closing[0]))

    def walk(x, z):
        """The steps of a shortest walk from x to z, or None."""
        back, queue = {x: None}, [x]
        for y in queue:  # grows while it is read
            for w, arc in forced[y]:
                if w not in back:
                    back[w] = (y, arc)
                    queue.append(w)
        if z not in back:
            return None
        steps = []
        while z != x:
            y, arc = back[z]
            steps.append((y, z, arc))
            z = y
        return steps[::-1]

    best = None
    for x in choices:
        there, back = walk(x, (x[0], not x[1])), walk((x[0], not x[1]), x)
        if there and back and (best is None or len(there) + len(back) < len(best)):
            best = there + back
    return best


def dixon1_rule_pairs(p):
    """Predicted crossing set for the axis family, from its geometry.

    The x-slider passes through every edge anchored at the y-slider and vice
    versa, and two same-side vertices of one axis cross the inner one's
    anchor edge.
    """
    out = set()
    for i in range(1, p.m):
        out.add(("p0", ("q0", f"p{i}")))
    for j in range(1, p.n):
        out.add(("q0", (f"q{j}", "p0")))
    for i in range(1, p.m):
        for k in range(i + 1, p.m):
            if p.sx[i - 1] * p.sx[k - 1] > 0:
                out.add((f"p{i}", ("q0", f"p{k}")))
    for j in range(1, p.n):
        for k in range(j + 1, p.n):
            if p.sy[j - 1] * p.sy[k - 1] > 0:
                out.add((f"q{j}", (f"q{k}", "p0")))
    return out


def axis_params(m, n, sx=None, sy=None):
    """K(m, n) with radii 1, 2, ...; every sign + unless given."""
    return Dixon1Params(m, n, range(1, m), range(1, n), sx or [1] * (m - 1), sy or [1] * (n - 1))


# sign patterns of the two four-vertex orbits, by vertex number mod 4
_D2_PATTERN = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def dixon2_partner_pairs():
    """Predicted crossing set: each vertex sweeps the edges at its antipode."""
    out = set()
    for v in range(1, 5):
        w = v + 4
        for i in range(1, 5):
            if i != v:
                out.add((str(v), (str(i), str(w))))
    for v in range(5, 9):
        w = v - 4
        for j in range(5, 9):
            if j != v:
                out.add((str(v), (str(w), str(j))))
    return out


def dixon2_expected_length(p, i, j):
    """Edge length by the sign-pattern relation of the two endpoints."""
    si = _D2_PATTERN[i]
    sj = _D2_PATTERN[j - 4]
    if si == sj:
        return p.a
    if si[0] == sj[0]:
        return p.d
    if si[1] == sj[1]:
        return p.b
    return p.c


def random_dixon1_params(rng):
    m = rng.randint(2, 5)
    n = rng.randint(2, 5)
    a, cur = [], 0.0
    for _ in range(m - 1):
        cur += rng.uniform(0.5, 2.0)
        a.append(cur)
    b, cur = [], 0.0
    for _ in range(n - 1):
        cur += rng.uniform(0.5, 2.0)
        b.append(cur)
    sx = tuple(rng.choice((1, -1)) for _ in range(m - 1))
    sy = tuple(rng.choice((1, -1)) for _ in range(n - 1))
    return Dixon1Params(m, n, tuple(a), tuple(b), sx, sy)


def two_colour_reference(partners):
    """:func:`lmodel.cgraph.two_colour` as it was written first: it keeps every
    odd-cycle candidate and takes the least of the shortest at the end."""

    def bfs(s):
        dist, parent, queue = {s: 0}, {s: s}, [s]
        for x in queue:
            for y in partners[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        return dist, parent

    colour = {}
    components = []
    for s, ys in enumerate(partners):
        if ys and s not in colour:
            dist, _ = bfs(s)
            colour.update((x, d % 2) for x, d in dist.items())
            components.append(tuple([x for x, d in dist.items() if d % 2 == k] for k in (0, 1)))
    if all(colour[x] != colour[y] for x in colour for y in partners[x]):
        return components, None
    cycles = []
    for s in colour:
        dist, parent = bfs(s)
        for x in dist:
            for y in partners[x]:
                if x < y and dist[x] == dist[y]:
                    px, py = [x], [y]
                    while px[-1] != py[-1]:
                        px.append(parent[px[-1]])
                        py.append(parent[py[-1]])
                    cycles.append(px + py[-2::-1] + [x])
    return None, min(cycles, key=lambda cyc: (len(cyc), cyc))


def random_partners(rng, n, degree):
    """A random undirected graph on n nodes with about ``degree`` neighbours
    each, as ascending neighbour lists (a two-cycle partner structure)."""
    adj = [set() for _ in range(n)]
    for _ in range(n * degree // 2):
        x, y = rng.sample(range(n), 2)
        adj[x].add(y)
        adj[y].add(x)
    return [sorted(ys) for ys in adj]
