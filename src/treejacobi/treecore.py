"""Vertex addressing, sparse functions, levels, and inner products on the
rooted tree and on finite patches of the one-ended tree."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from .errors import KindMismatch, PatchTooLarge
from .exactnum import conj

Address = Tuple[int, ...]

# The apex of a one-ended patch has a single successor outside the patch;
# index 0 is never a valid child index, so this sentinel is unambiguous.
APEX_SUCCESSOR: Address = (0,)

DEFAULT_ENTRY_BUDGET = 2_000_000


def check_budget(count: int, what: str) -> None:
    """Refuse (PatchTooLarge) an enumeration of more than DEFAULT_ENTRY_BUDGET
    entries, before any of them is built: a level of the tree has d^n vertices."""
    if count > DEFAULT_ENTRY_BUDGET:
        raise PatchTooLarge(f"{what} needs {count} entries, "
                            f"over the budget of {DEFAULT_ENTRY_BUDGET}")


def format_address(x: Address) -> str:
    """Dot-separated decimal form; the empty word prints as "e"."""
    if not x:
        return "e"
    return ".".join(str(i) for i in x)


def parse_address(text: str) -> Address:
    if text == "e":
        return ()
    try:
        parts = tuple(int(p) for p in text.split("."))
    except ValueError as exc:
        raise ValueError(f"bad vertex address {text!r}: {exc}") from None
    if any(p < 0 for p in parts):
        raise ValueError(f"bad vertex address {text!r}: negative index")
    return parts


def validate_address(x: Address, d: int) -> None:
    for i in x:
        if not 1 <= i <= d:
            raise ValueError(
                f"address {format_address(x)} has index {i} outside 1..{d}")


def children(x: Address, d: int) -> list[Address]:
    return [x + (i,) for i in range(1, d + 1)]


def parent(x: Address) -> Optional[Address]:
    return x[:-1] if x else None


def level(x: Address) -> int:
    return len(x)


def level_vertices(n: int, d: int) -> Iterator[Address]:
    """All d^n level-n vertices in lexicographic order."""
    check_budget(d ** n, f"level {n} of the degree-{d} tree")
    return itertools.product(range(1, d + 1), repeat=n)


def subtree_size(depth: int, d: int) -> int:
    """The (d**(depth + 1) - 1)/(d - 1) vertices of a subtree `depth` levels
    deep in the degree-d tree; ValueError unless depth >= 0 and d >= 2."""
    if depth < 0:
        raise ValueError(f"subtree depth must be nonnegative, got {depth}")
    if d < 2:
        raise ValueError(f"branching degree must be at least 2, got {d}")
    return (d ** (depth + 1) - 1) // (d - 1)


def subtree_vertices(x: Address, depth: int, d: int) -> Iterator[Address]:
    """Vertices of the subtree below x, down `depth` extra levels, in preorder."""
    check_budget(subtree_size(depth, d), f"a subtree of depth {depth}")
    return _preorder(x, len(x) + depth, d)


def _preorder(x: Address, bottom: int, d: int) -> Iterator[Address]:
    """The vertices below x down to level `bottom`, in preorder, from a
    stack holding each pending child in reverse order."""
    stack, reverse = [x], range(d, 0, -1)
    while stack:
        y = stack.pop()
        yield y
        if len(y) < bottom:
            stack += [y + (i,) for i in reverse]


@dataclass(frozen=True)
class LambdaPatch:
    """Finite window of the one-ended tree: the apex x, everything at most
    `apex_level` levels below it, and one virtual successor above it.

    Patch words are read downward from the apex: the empty word is the apex
    (tree level `apex_level`), a word w of length L sits at tree level
    apex_level - L.  APEX_SUCCESSOR = (0,) is the virtual vertex one level
    above the apex."""

    apex_level: int
    d: int

    def __post_init__(self):
        if self.apex_level < 0:
            raise ValueError("apex level must be nonnegative")
        if self.d < 2:
            raise ValueError("branching degree must be at least 2")
        check_budget(self.size(), f"a patch of apex level {self.apex_level}")

    def size(self) -> int:
        return subtree_size(self.apex_level, self.d)

    def level(self, w: Address) -> int:
        if w == APEX_SUCCESSOR:
            return self.apex_level + 1
        return self.apex_level - len(w)


# The kind of a function on the rooted tree (see SparseFunction).
GAMMA = None


@dataclass
class SparseFunction:
    """Finitely supported complex-valued function on vertices.

    Entries may be floats/complex or ExactComplex; zero entries are dropped
    so equal functions have equal entry maps.  kind is GAMMA on the rooted
    tree, or the LambdaPatch the function lives on."""

    entries: Dict[Address, object] = field(default_factory=dict)
    kind: Optional[LambdaPatch] = GAMMA

    def __post_init__(self):
        self.entries = {x: v for x, v in self.entries.items() if v}

    @staticmethod
    def delta(x: Address, kind: Optional[LambdaPatch] = GAMMA, value=1.0) -> "SparseFunction":
        return SparseFunction({x: value}, kind)

    def value(self, x: Address):
        return self.entries.get(x, 0)

    def support(self) -> list[Address]:
        return sorted(self.entries)

    def __add__(self, other: "SparseFunction") -> "SparseFunction":
        _check_kind(self, other)
        out = dict(self.entries)
        for x, v in other.entries.items():
            out[x] = out.get(x, 0) + v
        return SparseFunction(out, self.kind)

    def __sub__(self, other: "SparseFunction") -> "SparseFunction":
        return self + other.scaled(-1)

    def scaled(self, c) -> "SparseFunction":
        return SparseFunction({x: c * v for x, v in self.entries.items()}, self.kind)

    def norm(self) -> float:
        return abs(inner(self, self)) ** 0.5

    def max_abs(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def to_complex(self) -> "SparseFunction":
        return SparseFunction({x: complex(v) for x, v in self.entries.items()},
                              self.kind)

    # -- JSON ----------------------------------------------------------

    def to_json(self) -> str:
        """The JSON text of one record per vertex of the support, in address
        order, keys sorted and a non-finite part written null.  An address is
        its parent's text plus its last index where the parent is in the
        support, and each distinct value object is formatted once."""
        names: Dict[Address, str] = {}
        tails: Dict[int, str] = {}  # id of a value object -> its record's tail
        records = []
        for x in self.support():
            parent = names.get(x[:-1]) if len(x) > 1 else None
            name = names[x] = format_address(x) if parent is None else f"{parent}.{x[-1]}"
            v = self.entries[x]
            tail = tails.get(id(v))
            if tail is None:  # repr is the json module's text of a finite float
                c = complex(v)
                im, re = (repr(t) if math.isfinite(t) else "null" for t in (c.imag, c.real))
                tail = tails[id(v)] = f'"im": {im}, "re": {re}}}'
            records.append(f'{{"address": "{name}", {tail}')
        return f"[{', '.join(records)}]"


def _check_kind(f: SparseFunction, g: SparseFunction) -> None:
    if f.kind != g.kind:
        raise KindMismatch(f"functions live on different trees: "
                           f"{f.kind or 'the rooted tree'} vs {g.kind or 'the rooted tree'}")


def inner(f: SparseFunction, g: SparseFunction):
    """<f, g> = sum f(x) * conj(g(x)); exact when both sides are exact."""
    _check_kind(f, g)
    small, large = (f, g) if len(f.entries) <= len(g.entries) else (g, f)
    total = None
    for x, v in small.entries.items():
        w = large.entries.get(x)
        if w is None:
            continue
        fv, gv = (v, w) if small is f else (w, v)
        term = fv * conj(gv)
        total = term if total is None else total + term
    return 0.0 if total is None else total


def level_indicator(n: int, d: int, normalized: bool = False) -> SparseFunction:
    """The indicator of level n, or its unit-norm multiple d^(-n/2) * indicator."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    value = d ** (-n / 2) if normalized else 1.0
    return SparseFunction({x: value for x in level_vertices(n, d)}, GAMMA)
