"""The paper's worst-case kernel-size ladder, for ``tdilp bounds``.

No solve reads it: every ``tdilp solve`` is a fresh process that compiles
what it imports, so the ladder lives outside the kernelizer.
"""

from __future__ import annotations

from .instance import Record

MAX_EXACT_BITS = 1_000_000
NOTE_LIMIT = 80  # characters; a longer note prints as HUGE
HUGE = "astronomically large"


class Astronomical:
    """Placeholder for an exact integer too large to materialize, kept
    as a printable note of at most NOTE_LIMIT characters."""

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
                self.note = HUGE
                return
        note = template.format(*texts)
        self.note = note if len(note) <= NOTE_LIMIT else HUGE

    def __repr__(self):
        return f"Astronomical({self.note})"

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

    def __init__(
        self,
        ell: int,
        k: int,
        d: dict[int, int | Astronomical],
        e: dict[int, int | Astronomical],
    ):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)


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
    return KernelBounds(ell=ell, k=k, d=d, e=e)


def format_bound(value: int | Astronomical) -> str:
    """Small ints in decimal, big ones as a power-of-two estimate."""
    if isinstance(value, int):
        if value.bit_length() <= 128:
            return str(value)
        return f"~2^{value.bit_length() - 1} ({value.bit_length()} bits)"
    return str(value)
