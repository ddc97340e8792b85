"""The domain presolve that ``tdilp solve --propagate`` runs.

It derives rows from remainder equalities g - p*m - r = 0, such as the
3-coloring encoding emits.  ``_SearchProgram`` imports this module only
under propagate, so a plain solve never compiles it.
"""

from __future__ import annotations

import math

from .solver import _opposite


def _presolve_rows(rows, obj: list[int]) -> set[tuple[tuple[tuple[int, int], ...], int]]:
    """Rows the propagate flag adds to the primitive rows of a search program.

    Both rewrites are sound and concern remainder equalities g - p*m - r = 0
    whose r is confined to [0, p-1]:
      * remainder aliasing: two such rows g = p*m1 + r1 = p*m2 + r2 force
        r1 = r2 at every integer point, so that equality is added;
      * modular envelope: when g >= 0 occurs only in such rows and in upper
        bounds on itself, each m only in its row pair and in m >= 0, and
        all of them are objective-free, any feasible point translates to
        one with g < lcm(p), so the bound g <= lcm(p) - 1 is added.
    """
    # tightest as _SearchProgram indexes it, and each variable's rows, which
    # only the rewrites read
    var_rows: list[list[int]] = [[] for _ in obj]
    tightest: dict[tuple[tuple[int, int], ...], int] = {}
    for ri, (terms, rhs) in enumerate(rows):
        for j, _ in terms:
            var_rows[j].append(ri)
        if tightest.get(terms, rhs) >= rhs:
            tightest[terms] = rhs
    by_gp: dict[tuple[int, int], list[tuple[int, int]]] = {}
    by_g: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
    for key, rhs in tightest.items():
        # each equality row pair once, as _SearchProgram.equalities lists it
        if rhs != 0 or len(key) != 3 or key[0][1] < 0 or tightest.get(_opposite(key)) != 0:
            continue
        for terms in (key, _opposite(key)):
            (m, neg_p), (r, neg_one), (g, one) = sorted(terms, key=lambda t: t[1])
            if neg_p > -2 or neg_one != -1 or one != 1:
                continue
            p = -neg_p
            if tightest.get(((r, -1),), 1) > 0 or tightest.get(((r, 1),), p) >= p:
                continue
            by_gp.setdefault((g, p), []).append((m, r))
            if obj[m] == 0 and len(var_rows[m]) == 2 + (tightest.get(((m, -1),)) == 0):
                by_g.setdefault(g, []).append((p, terms))

    extra = set()
    for entries in by_gp.values():
        base_r = min(entries)[1]
        for _, r in entries:
            if r != base_r:
                alias = tuple(sorted(((base_r, 1), (r, -1))))
                extra.update(((alias, 0), (_opposite(alias), 0)))
    for g, pats in by_g.items():
        if obj[g] != 0 or tightest.get(((g, -1),)) != 0:
            continue
        allowed = {((g, -1),)}
        for _, terms in pats:
            allowed.update((terms, _opposite(terms)))
        if all(
            rows[ri][0] == ((g, 1),) or (rows[ri][1] == 0 and rows[ri][0] in allowed)
            for ri in var_rows[g]
        ):
            extra.add((((g, 1),), math.lcm(*(p for p, _ in pats)) - 1))
    return extra
