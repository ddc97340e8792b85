"""Hardness-reduction instance generators.

Three constructions, each emitting a plain :class:`IlpInstance` whose
feasibility encodes the source problem:

* ``reduce_vertex_cover``: binary vertex variables plus a unary budget,
  every coefficient in {-1, 0, 1}.
* ``reduce_three_coloring``: prime-number encoding with three global
  counters, shipped with an explicit height-8 treedepth decomposition.
* ``reduce_subset_sum``: a chain of doubling gadgets glued at junction
  variables, shipped with a width-2 tree-decomposition witness.

The generators are deterministic: variable names, row order, and the
emitted witnesses depend only on the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formats import TreeDecompositionWitness
from .instance import IlpInstance, InstanceBuilder
from .structure import ROOT, Graph, TreedepthDecomposition

__all__ = [
    "CLOSED",
    "GadgetSpec",
    "HALF_OPEN",
    "OPEN",
    "SubsetSumInstance",
    "build_gadget",
    "nth_prime",
    "reduce_subset_sum",
    "reduce_three_coloring",
    "reduce_vertex_cover",
]


# ---------------------------------------------------------------------------
# primes

def nth_prime(i: int) -> int:
    """The i-th prime, 1-based: nth_prime(1) == 2."""
    if i < 1:
        raise ValueError("prime index must be at least 1")
    p = 1
    while i:
        p += 1
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            i -= 1
    return p


# ---------------------------------------------------------------------------
# vertex cover

def reduce_vertex_cover(graph: Graph, nu: int) -> IlpInstance:
    """Feasible iff ``graph`` has a vertex cover of size at most ``nu``.

    One binary variable per vertex, coverage row per edge, and a unary
    budget: nu variables pinned to 1, their sum x, and sum(v) <= x.
    """
    if not 1 <= nu <= graph.n:
        raise ValueError(f"budget {nu} outside 1..{graph.n}")
    index = {w: pos + 1 for pos, w in enumerate(graph.vertices)}
    b = InstanceBuilder()
    vnames = {w: f"v{index[w]}" for w in graph.vertices}
    for w in graph.vertices:
        b.add_ge({vnames[w]: 1}, 0)
        b.add_le({vnames[w]: 1}, 1)
    for u, v in sorted(graph.edges):
        b.add_ge({vnames[u]: 1, vnames[v]: 1}, 1)
    budget = [f"x{i}" for i in range(1, nu + 1)]
    for name in budget:
        b.add_eq({name: 1}, 1)
    b.add_eq({"x": 1, **{name: -1 for name in budget}}, 0)
    b.add_le({**{vnames[w]: 1 for w in graph.vertices}, "x": -1}, 0)
    return b.build()


# ---------------------------------------------------------------------------
# 3-coloring via prime encoding

def reduce_three_coloring(graph: Graph) -> tuple[IlpInstance, TreedepthDecomposition]:
    """Feasible iff ``graph`` is 3-colorable.

    Vertex i is represented by the i-th prime; global counters g_1..g_3
    hold the prime-product encodings of the three color classes.  Per
    vertex and per color a remainder block ties u to "g_j not divisible
    by p(i)", vertex blocks force exactly one divisible counter, edge
    blocks forbid a counter divisible by both endpoint primes.

    Returns the instance and a treedepth decomposition of height <= 8:
    the counters form a chain on top and every remaining component
    hangs below them.
    """
    index = {w: pos + 1 for pos, w in enumerate(graph.vertices)}
    prime = {i: nth_prime(i) for i in index.values()}
    b = InstanceBuilder()
    gs = ("g1", "g2", "g3")
    for g in gs:
        b.add_ge({g: 1}, 0)
    above: dict[str, str | None] = {"g1": None, "g2": "g1", "g3": "g2"}  # parent by name

    def remainder_block(g: str, p: int, m: str, r: str, u: str, under: str):
        # g = p*m + r with 0 <= r <= p-1, u binary, and u = 0 iff r = 0
        b.add_ge({m: 1}, 0)
        b.add_ge({r: 1}, 0)
        b.add_le({r: 1}, p - 1)
        b.add_ge({u: 1}, 0)
        b.add_le({u: 1}, 1)
        b.add_eq({g: 1, m: -p, r: -1}, 0)
        b.add_le({u: 1, r: -1}, 0)
        b.add_le({r: 1, u: -(p - 1)}, 0)
        above[r] = under
        above[m] = r

    for w in graph.vertices:
        i = index[w]
        p = prime[i]
        u1, u2, u3 = (f"u_{i}_{j}" for j in (1, 2, 3))
        for j, u in enumerate((u1, u2, u3), 1):
            remainder_block(gs[j - 1], p, f"m_{i}_{j}", f"r_{i}_{j}", u, u3)
        b.add_eq({u1: 1, u2: 1, u3: 1}, 2)
        above.update({u1: "g3", u2: u1, u3: u2})

    for w, v in sorted((min(e), max(e)) for e in graph.edges):
        iw, iv = index[w], index[v]
        for j in (1, 2, 3):
            uw, uv = f"ue_{iw}_{iv}_{iw}_{j}", f"ue_{iw}_{iv}_{iv}_{j}"
            for t in (iw, iv):
                remainder_block(
                    gs[j - 1],
                    prime[t],
                    f"me_{iw}_{iv}_{t}_{j}",
                    f"re_{iw}_{iv}_{t}_{j}",
                    f"ue_{iw}_{iv}_{t}_{j}",
                    uv,
                )
            b.add_ge({uw: 1, uv: 1}, 1)
            above.update({uw: "g3", uv: uw})

    instance = b.build()
    vid = instance.id_of
    parent = {vid(n): ROOT if a is None else vid(a) for n, a in above.items()}
    return instance, TreedepthDecomposition(parent)


# ---------------------------------------------------------------------------
# subset-sum gadgets

OPEN = "open"
HALF_OPEN = "half_open"
CLOSED = "closed"

_VARIANTS = (OPEN, HALF_OPEN, CLOSED)


@dataclass(frozen=True)
class SubsetSumInstance:
    """Values Q and target r; asks whether some subset of Q sums to r."""

    Q: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(int(q) for q in self.Q))
        if not self.Q:
            raise ValueError("need at least one value")
        if any(q < 1 for q in self.Q):
            raise ValueError("values must be positive")
        if self.r < 1:
            raise ValueError("target must be positive")

    @property
    def n(self) -> int:
        return len(self.Q)


@dataclass(frozen=True)
class GadgetSpec:
    """One doubling gadget: y = x + q*h with h binary.

    Variants: OPEN has a feeder variable x; HALF_OPEN drops it (y is 0
    or q); CLOSED additionally pins h to 1 (y is exactly q).  ``prefix``
    namespaces the internal h/h'/z variables so gadgets compose.
    """

    q: int
    variant: str = OPEN
    prefix: str = ""
    x: str | None = None
    y: str = "y"

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("gadget value must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == OPEN:
            if self.x is None:
                object.__setattr__(self, "x", "x")
        elif self.x is not None:
            raise ValueError(f"variant {self.variant!r} has no feeder variable")

    def bits(self) -> tuple[int, ...]:
        """Indices of the one-bits of q, ascending."""
        return tuple(i for i in range(self.q.bit_length()) if self.q >> i & 1)

    def b_max(self) -> int:
        return self.q.bit_length() - 1


def _emit_gadget(
    b: InstanceBuilder, spec: GadgetSpec
) -> tuple[list[tuple[str, ...]], dict[int, tuple[str, ...]]]:
    """Emit the gadget's rows; return its width-2 witness path by name:
    spine bags in feeder-to-y order, plus ladder bags keyed by spine index."""
    m = spec.b_max()
    bits = set(spec.bits())
    h = tuple(f"h{spec.prefix}_{i}" for i in range(m + 1))
    hp = tuple(f"hp{spec.prefix}_{i}" for i in range(m))
    z = tuple(f"z{spec.prefix}_{i}" for i in range(m + 1))

    if spec.variant == CLOSED:
        b.add_eq({h[0]: 1}, 1)
    else:
        b.add_ge({h[0]: 1}, 0)
        b.add_le({h[0]: 1}, 1)
    ladders: dict[int, tuple[str, ...]] = {}
    for i in range(m):
        b.add_eq({hp[i]: 1, h[i]: -1}, 0)
        b.add_eq({h[i + 1]: 1, h[i]: -1, hp[i]: -1}, 0)
        ladders[2 * i + 1] = (h[i], hp[i], h[i + 1])

    feeder = {spec.x: 1} if spec.x is not None else {}
    if 0 in bits:
        b.add_eq({z[0]: 1, h[0]: -1, **{n: -c for n, c in feeder.items()}}, 0)
    elif feeder:
        b.add_eq({z[0]: 1, spec.x: -1}, 0)
    else:
        b.add_eq({z[0]: 1}, 0)
    spine = [(z[0], h[0], *feeder)]
    for i in range(m):
        step = {z[i + 1]: 1, z[i]: -1}
        if i + 1 in bits:
            step[h[i + 1]] = -1
        b.add_eq(step, 0)
        spine += [(z[i], h[i], h[i + 1]), (z[i], h[i + 1], z[i + 1])]
    b.add_eq({spec.y: 1, z[m]: -1}, 0)
    spine.append((z[m], spec.y))
    return spine, ladders


def build_gadget(spec: GadgetSpec) -> IlpInstance:
    """The gadget as a standalone instance (junction variables included)."""
    b = InstanceBuilder()
    _emit_gadget(b, spec)
    return b.build()


def reduce_subset_sum(s: SubsetSumInstance) -> tuple[IlpInstance, TreeDecompositionWitness]:
    """Feasible iff some subset of s.Q sums to s.r.

    Gadget k contributes q_k or nothing to the running total y_k; a
    closed gadget pins y_n to the target.  Consecutive gadgets share
    only the junction variable between them, so the width-2 witness is
    the per-gadget paths glued at the junction bags.
    """
    b = InstanceBuilder()
    paths = [_emit_gadget(b, GadgetSpec(s.Q[0], HALF_OPEN, prefix="1", y="y_1"))]
    for k, q in enumerate(s.Q[1:], 2):
        paths.append(_emit_gadget(b, GadgetSpec(q, OPEN, prefix=str(k), x=f"y_{k - 1}", y=f"y_{k}")))
    # the closed gadget hangs from its junction end: its path reversed
    spine, ladders = _emit_gadget(b, GadgetSpec(s.r, CLOSED, prefix="c", y=f"y_{s.n}"))
    paths.append((spine[::-1], {len(spine) - 1 - idx: bag for idx, bag in ladders.items()}))
    instance = b.build()
    vid = instance.id_of

    parent: dict[int, int] = {}
    bags: dict[int, frozenset[int]] = {}
    attach = ROOT
    for spine, ladders in paths:
        first = len(bags)
        for idx, bag in enumerate(spine):
            parent[first + idx] = first + idx - 1 if idx else attach
            bags[first + idx] = frozenset(map(vid, bag))
        attach = len(bags) - 1  # the bag holding this gadget's junction
        for idx, bag in ladders.items():
            parent[len(bags)] = first + idx
            bags[len(bags)] = frozenset(map(vid, bag))
    return instance, TreeDecompositionWitness(parent, bags)
