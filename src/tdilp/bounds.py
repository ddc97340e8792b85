"""What ``tdilp bounds`` and ``tdilp analyze`` report beyond a solve: the
paper's worst-case kernel-size ladder and exact treedepth.

No solve reads either: every ``tdilp solve`` is a fresh process that
compiles what it imports, so both live outside the solve path.
"""

from __future__ import annotations

from .instance import Record
from .structure import ROOT, Graph, StructureError, TreedepthDecomposition

MAX_EXACT_BITS = 1_000_000
EXACT_TREEDEPTH_CAP = 25  # vertices; the exact recursion is exponential in them
NOTE_LIMIT = 80  # characters; a longer note prints as HUGE
HUGE = "astronomically large"


class Astronomical(Record):
    """Placeholder for an exact integer too large to materialize, kept
    as a printable note of at most NOTE_LIMIT characters.  Two
    placeholders are equal when they print alike."""

    __slots__ = ("note",)

    def __init__(self, template: str, *operands: "int | Astronomical"):
        """The note template.format(*operands); an int operand of more
        than NOTE_LIMIT digits is never converted, its note is HUGE."""
        texts = []
        for x in operands:
            if isinstance(x, Astronomical):
                texts.append(x.note)
            elif x < 10**NOTE_LIMIT:
                texts.append(str(x))
            else:
                super().__init__(HUGE)
                return
        note = template.format(*texts)
        super().__init__(note if len(note) <= NOTE_LIMIT else HUGE)

    def __str__(self):
        return self.note

    def __add__(self, other):
        return Astronomical("({} + {})", self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return Astronomical("({} * {})", self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return Astronomical("({})^{}", self, exponent)


def _pow2(exponent) -> int | Astronomical:
    """2**exponent, materialized only while it stays printable."""
    if isinstance(exponent, int) and exponent <= MAX_EXACT_BITS:
        return 1 << exponent
    return Astronomical("2^{}", exponent)


class KernelBounds(Record):
    """The worst-case kernel-size ladder for coefficient bound ell and
    decomposition height k: d_i bounds sibling counts at depth i, e_i
    bounds subtree sizes; a kernelized tree has at most e_1 variables.
    """

    __slots__ = ("ell", "k", "d", "e")


def compute_bounds(ell: int, k: int) -> KernelBounds:
    """Exact evaluation of the d_i / e_i recurrences, top of the ladder
    e_k = 1, d_k = 0, then d_i = #classes(i, e_{i+1}) + 1 and
    e_i = d_i * e_{i+1} + 1 going down to i = 1."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if k < 1:
        raise ValueError("k must be at least 1")
    factor = (2 * ell + 1) ** (k + 1)
    d: dict[int, int | Astronomical] = {k: 0}
    e: dict[int, int | Astronomical] = {k: 1}
    for i in range(k - 1, 0, -1):
        d[i] = _pow2(factor * (e[i + 1] ** i)) + 1
        e[i] = d[i] * e[i + 1] + 1
    return KernelBounds(ell, k, d, e)


def format_bound(value: int | Astronomical) -> str:
    """Small ints in decimal, big ones as a power-of-two estimate."""
    if isinstance(value, int):
        if value.bit_length() <= 128:
            return str(value)
        return f"~2^{value.bit_length() - 1} ({value.bit_length()} bits)"
    return str(value)


# ---------------------------------------------------------------------------
# exact treedepth


def _components_within(vset: frozenset[int], graph: Graph) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for s in sorted(vset):
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        queue = [s]
        while queue:
            v = queue.pop()
            for w in graph.neighbors(v):
                if w in vset and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def compute_treedepth_exact(graph: Graph) -> tuple[int, TreedepthDecomposition]:
    """Optimal treedepth with a witness, by the standard recursion:
    1 for a single vertex, 1 + min over deleted vertices when connected,
    max over components otherwise.  Memoized on vertex subsets; deletion
    candidates are tried in ascending id and the first optimum is kept.
    """
    if graph.n > EXACT_TREEDEPTH_CAP:
        raise StructureError(
            f"exact treedepth is capped at {EXACT_TREEDEPTH_CAP} vertices, got {graph.n}"
        )
    memo: dict[frozenset[int], tuple[int, dict[int, int]]] = {}

    def solve_connected(vset: frozenset[int]) -> tuple[int, dict[int, int]]:
        if len(vset) == 1:
            (v,) = vset
            return 1, {v: ROOT}
        hit = memo.get(vset)
        if hit is not None:
            return hit
        best = len(vset) + 1
        best_wit: dict[int, int] | None = None
        for v in sorted(vset):
            rest = vset - {v}
            partial = 0
            parts: list[dict[int, int]] = []
            viable = True
            for comp in _components_within(rest, graph):
                h, wit = solve_connected(comp)
                partial = max(partial, h)
                parts.append(wit)
                if partial + 1 >= best:
                    viable = False
                    break
            if viable and partial + 1 < best:
                best = partial + 1
                merged = {v: ROOT}
                for wit in parts:
                    for u, p in wit.items():
                        merged[u] = v if p == ROOT else p
                best_wit = merged
        assert best_wit is not None
        memo[vset] = (best, best_wit)
        return memo[vset]

    forest: dict[int, int] = {}
    height = 0
    for comp in graph.connected_components():
        h, wit = solve_connected(frozenset(comp))
        forest.update(wit)
        height = max(height, h)
    decomposition = TreedepthDecomposition(forest)
    return height, decomposition
