"""Canonical decorated rooted trees and exact-rational linear combinations.

A tree carries a node decoration (a multi-index) at every node and a
label together with an edge decoration on every edge.  Trees are
non-planar: children are kept sorted by a canonical total order, so two
planar presentations of the same tree are the same tree.  Canonical
trees are hash-consed through a module-level interning table: equal
trees are one object, so trees hash and compare equal by identity.
Coefficients are exact rationals (``int`` when integral, otherwise
``Fraction``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from operator import add, mul
from typing import Iterator

# An edge label is its rank in the fixed order of labels, so a tree's
# sorted child tuple is its encoding.  The letters are the text form only:
# LETTERS[lab] is the letter of label lab, LABELS maps a letter back.
OMEGA, H, K = 0, 1, 2
LETTERS = "OHK"
LABELS = {ch: lab for lab, ch in enumerate(LETTERS)}

MultiIndex = tuple


def mi_zero(d: int) -> MultiIndex:
    return (0,) * d

def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))

def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(a, b))

def mi_abs(a: MultiIndex) -> int:
    return sum(a)

def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for x in a:
        for j in range(2, x + 1):
            out *= j
    return out

def mi_binom(a: MultiIndex, b: MultiIndex) -> int:
    """Product of componentwise binomial coefficients binom(a_j, b_j)."""
    return prod(map(comb, a, b))

def mi_range(bound: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices l with l <= bound componentwise."""
    if not bound:
        yield ()
        return
    head, rest = bound[0], bound[1:]
    for tail in mi_range(rest):
        for x in range(head + 1):
            yield (x,) + tail

def weighted_range(w: tuple, cap: int) -> Iterator[tuple]:
    """(l, w.l) for all multi-indices l with w.l <= cap, in mi_range
    order, for positive integer weights w; nothing when cap < 0."""
    for l in mi_range(tuple(cap // x for x in w)):
        wl = sum(map(mul, w, l))
        if wl <= cap:
            yield l, wl


class Tree:
    """Canonical decorated rooted tree.

    ``n`` is the root decoration; ``children`` is the sorted tuple of
    ``(label, edge_decoration, subtree)`` triples, one per child.
    Instances are interned: equality is identity, and hashing and
    ``==`` are the identity defaults of ``object``.  Iterating a set of
    trees therefore follows memory addresses, which differ between
    runs, so a set of trees is sorted before it is iterated.

    The encoding ``_enc`` is ``(n, children)``, holding the child tuple
    itself: a label is its rank, and each triple holds the interned
    subtree, so an intern lookup hashes one level of the tree, not the
    whole tree.  Trees are ordered by their encodings (``__lt__``);
    since equal subtrees are one object, this is the lexicographic order
    of the fully nested encodings.

    There are two constructors.  ``Tree(n, children)`` takes the
    children in any order and sorts them.  ``Tree._presorted(n,
    children)`` interns a node whose children are sorted already; it
    neither sorts nor checks, so only builders that know the order
    (``tree_product``, ``plant_tree``, ``X``) call it.

    Two summaries are computed on first use and cached on the instance,
    since an interned tree never changes: ``stats()`` (the Omega, edge
    and H counts) and ``net()`` (node decorations minus edge
    decorations, summed over the tree).  Together they fix the degree
    form of the tree for every parameter set (see
    ``grading.degree_form``), so neither depends on params.
    """

    __slots__ = ("n", "children", "_enc", "_stats", "_net")

    _intern: dict = {}

    def __new__(cls, n: MultiIndex, children: tuple):
        return cls._presorted(tuple(n), tuple(sorted(
            (lab, tuple(e), sub) for lab, e, sub in children)))

    @classmethod
    def _presorted(cls, n: MultiIndex, children: tuple):
        """The interned tree with root decoration ``n`` and the sorted
        child tuple ``children`` (see the class docstring)."""
        enc = (n, children)
        cached = cls._intern.get(enc)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.n = n
        self.children = children
        self._enc = enc
        self._stats = None
        self._net = None
        cls._intern[enc] = self
        return self

    @property
    def dim(self) -> int:
        return len(self.n)

    def __lt__(self, other):
        return self._enc < other._enc

    def __repr__(self):
        return f"Tree({format_tree(self)!r})"

    def is_poly(self) -> bool:
        """True for bare polynomial nodes X^k (no edges)."""
        return not self.children

    def is_unit(self) -> bool:
        return not self.children and not any(self.n)

    def is_planted(self) -> bool:
        """True for I_k^l(tau): zero root decoration, single edge."""
        return len(self.children) == 1 and not any(self.n)

    def stats(self):
        if self._stats is None:
            omega = edges = hcount = 0
            for lab, _e, sub in self.children:
                s = sub.stats()
                omega += s[0] + (lab == OMEGA)
                edges += s[1] + 1
                hcount += s[2] + (lab == H)
            self._stats = (omega, edges, hcount)
        return self._stats

    def net(self) -> MultiIndex:
        """Sum of node decorations minus sum of edge decorations."""
        if self._net is None:
            net = list(self.n)
            for _lab, e, sub in self.children:
                for j, (x, y) in enumerate(zip(sub.net(), e)):
                    net[j] += x - y
            self._net = tuple(net)
        return self._net

    def omega_count(self) -> int:
        return self.stats()[0]

    def edge_count(self) -> int:
        return self.stats()[1]

    def h_count(self) -> int:
        return self.stats()[2]


def X(k: MultiIndex) -> Tree:
    return Tree._presorted(tuple(k), ())

def unit(d: int) -> Tree:
    return X(mi_zero(d))

def has_k_leaf(t: Tree) -> bool:
    for lab, _e, sub in t.children:
        if lab == K and sub.is_poly():
            return True
        if has_k_leaf(sub):
            return True
    return False


def tree_product(a: Tree, b: Tree) -> Tree:
    """Product by root identification; root decorations add.

    A unit factor returns the other one.  Otherwise the product's
    children are the sorted union of both child tuples, interned without
    going through Tree()."""
    if len(a.n) != len(b.n):
        raise ValueError("dimension mismatch")
    if not b.children and not any(b.n):
        return a
    if not a.children and not any(a.n):
        return b
    return Tree._presorted(mi_add(a.n, b.n),
                           tuple(sorted(a.children + b.children)))


def coeff_mul(a, b):
    """a * b for coefficients, passing a unit factor through unchanged:
    1 * Fraction(...) would build a new Fraction for the same value.
    The exact hot paths multiply every coefficient through here."""
    return b if a == 1 else a if b == 1 else a * b


class LinComb:
    """Finite formal sum with exact rational coefficients.

    A coefficient is stored as an ``int`` when it is integral and as a
    ``Fraction`` otherwise; both compare, hash and print alike, so the
    choice is invisible outside, but products of integral coefficients
    stay in integer arithmetic.

    Terms are canonical trees, or tuples of trees for tensors: a
    coproduct is a LinComb keyed by (left, right) pairs.  ``map_trees``
    and ``product`` apply to sums of trees only."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    @classmethod
    def single(cls, t: Tree, c=1) -> "LinComb":
        v = cls()
        v.add(t, c)
        return v

    def add(self, t, c) -> None:
        if type(c) is not int:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        terms = self.terms
        size = len(terms)
        old = terms.setdefault(t, c)
        if len(terms) != size:  # a new term, stored as c
            if not c:
                del terms[t]
            return
        c += old
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if c:
            terms[t] = c
        else:
            del terms[t]

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        rows = sorted((t if type(t) is tuple else (t,), c)
                      for t, c in self.terms.items())
        parts = [f"{c}*" + "(x)".join(map(format_tree, ts)) for ts, c in rows]
        return "LinComb(" + " + ".join(parts) + ")"

    def map_trees(self, f) -> "LinComb":
        """Apply a Tree -> LinComb map linearly."""
        out = LinComb()
        for t, c in self.terms.items():
            for s, c2 in f(t):
                out.add(s, coeff_mul(c, c2))
        return out

    def product(self, other: "LinComb") -> "LinComb":
        out = LinComb()
        for t, c in self.terms.items():
            for s, c2 in other.terms.items():
                out.add(tree_product(t, s), c * c2)
        return out


def plant_tree(label: int, k: MultiIndex, t: Tree) -> Tree:
    """Planting that must not vanish; raises if it falls in the ideal."""
    k = tuple(k)
    if len(k) != t.dim:
        raise ValueError("dimension mismatch")
    if label == K and t.is_poly():
        raise ValueError("planted tree lies in the K-leaf ideal")
    return Tree._presorted(mi_zero(t.dim), ((label, k, t),))


def noise(d: int) -> Tree:
    """The single-noise tree (an Omega leaf below the root)."""
    return plant_tree(OMEGA, mi_zero(d), unit(d))

def dot_noise(d: int, k: MultiIndex = None) -> Tree:
    """The derivative-noise tree: an H leaf below the root, decoration k."""
    if k is None:
        k = mi_zero(d)
    return plant_tree(H, k, unit(d))


# Serialization.  Grammar:
#   tree  := "(" ["n=" mi] child* ")"
#   child := label ["^" mi] tree
#   label := "O" | "H" | "K"
#   mi    := "(" int {"," int} ")"
# "O()" / "H()" denote leaf children (label + empty subtree).
# The parser alone checks its input (labels in ``child``, every length
# against dim, given or fixed by the first one read, in ``_mi``).

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} at byte {pos}")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, dim: int | None):
        self.text = text
        self.pos = 0
        self.dim = dim

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        return self.text[self.pos]

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self) -> int:
        self._skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected integer", start)
        return int(self.text[start:self.pos])

    def _mi(self) -> MultiIndex:
        self._expect("(")
        entries = [self._int()]
        while self._peek() == ",":
            self.pos += 1
            entries.append(self._int())
        self._expect(")")
        mi = tuple(entries)
        if self.dim is None:
            self.dim = len(mi)
        elif len(mi) != self.dim:
            raise ParseError(
                f"multi-index of length {len(mi)}, expected {self.dim}",
                self.pos)
        if any(x < 0 for x in mi):
            raise ParseError("negative multi-index entry", self.pos)
        return mi

    def tree(self) -> Tree:
        self._expect("(")
        n = None
        if self._peek() == "n":
            self.pos += 1
            self._expect("=")
            n = self._mi()
        children = []
        while self._peek() != ")":
            children.append(self.child())
        self.pos += 1
        if n is None:
            if self.dim is None:
                raise ParseError(
                    "dimension undetermined; pass dim or decorate", self.pos)
            n = mi_zero(self.dim)
        return Tree(n, tuple(children))

    def child(self):
        lab = LABELS.get(self._peek())
        if lab is None:
            raise ParseError("expected edge label O, H or K", self.pos)
        self.pos += 1
        e = None
        if self._peek() == "^":
            self.pos += 1
            e = self._mi()
        sub = self.tree()
        if e is None:
            e = mi_zero(self.dim)
        return (lab, e, sub)


def parse(text: str, dim: int | None = None) -> Tree:
    p = _Parser(text, dim)
    t = p.tree()
    p._skip()
    if p.pos != len(p.text):
        raise ParseError("trailing input", p.pos)
    return t


def _fmt_mi(mi: MultiIndex) -> str:
    return "(" + ",".join(str(x) for x in mi) + ")"


def format_tree(t: Tree) -> str:
    parts = []
    if any(t.n):
        parts.append("n=" + _fmt_mi(t.n))
    for lab, e, sub in t.children:
        s = LETTERS[lab]
        if any(e):
            s += "^" + _fmt_mi(e)
        s += format_tree(sub)
        parts.append(s)
    return "(" + " ".join(parts) + ")"
