"""Canonical trees, parsing, products and the ideal quotient."""

from fractions import Fraction
from itertools import count, product
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from ristruct.trees import (H, K, OMEGA, LinComb, ParseError, Tree, X,
                            dot_noise, format_tree, has_k_leaf, mi_add,
                            mi_binom, mi_factorial, mi_range, noise, parse,
                            plant_tree, tree_product, unit, weighted_range)

from reference import plant


def _tree_order(child):
    """A key that orders children as Tree() sorts them."""
    lab, e, sub = child
    return (lab, e, sub._enc)


def assert_canonical_node(t, n, raw_children):
    """t is the node n over raw_children exactly as Tree() would build it:
    children in Tree()'s sort order, an encoding that holds the child
    tuple itself, and the format of the sorted node built without
    interning.  Identity alone would not show this, since the intern
    table is looked up by encoding."""
    assert t.n == tuple(n)
    assert list(t.children) == sorted(t.children, key=_tree_order)
    assert_one_tuple(t)
    rebuilt = SimpleNamespace(n=tuple(n),
                              children=sorted(raw_children, key=_tree_order))
    assert format_tree(t) == format_tree(rebuilt)
    assert t is Tree(n, tuple(raw_children))


def assert_one_tuple(t):
    """The encoding is (n, children) and holds the child tuple itself."""
    assert t._enc == (t.n, t.children)
    assert t._enc[1] is t.children


_FRESH = count(10 ** 6, 10)  # decorations no other tree carries


def test_interning_identity():
    a = Tree((0, 0), ((OMEGA, (0, 0), X((0, 0))),))
    b = Tree((0, 0), ((OMEGA, (0, 0), X((0, 0))),))
    assert a is b


def test_children_order_irrelevant():
    sub = noise(2)
    c1 = ((K, (0, 0), sub), (OMEGA, (0, 0), unit(2)))
    c2 = ((OMEGA, (0, 0), unit(2)), (K, (0, 0), sub))
    assert Tree((0, 0), c1) is Tree((0, 0), c2)


def test_stats():
    t = parse("(O() K(O() K(O())))", dim=3)
    assert t.stats() == (3, 5, 0)
    assert t.omega_count() == 3
    assert t.edge_count() == 5
    assert t.h_count() == 0


def test_planted_poly_unit_predicates():
    assert X((1, 0)).is_poly()
    assert unit(2).is_unit()
    assert noise(2).is_planted()
    assert not tree_product(noise(2), noise(2)).is_planted()


def test_tree_product_commutative_associative():
    a, b, c = noise(2), dot_noise(2), X((1, 1))
    assert tree_product(a, b) is tree_product(b, a)
    assert tree_product(tree_product(a, b), c) \
        is tree_product(a, tree_product(b, c))


def test_tree_product_identity():
    t = parse("(O() K(O()))", dim=2)
    assert tree_product(t, unit(2)) is t


def test_plant_k_leaf_ideal():
    assert not plant(K, (0, 0), X((1, 1)))
    assert plant(K, (0, 0), noise(2))
    with pytest.raises(ValueError):
        plant_tree(K, (0, 0), unit(2))


def test_has_k_leaf():
    good = parse("(O() K(O()))", dim=2)
    bad = Tree((0, 0), ((K, (0, 0), X((1, 0))),))
    assert not has_k_leaf(good)
    assert has_k_leaf(bad)


def test_parse_examples():
    t = parse("( O() K (H()) )", dim=3)
    assert t.stats() == (1, 3, 1)
    t2 = parse("(n=(1,0) O() K^(0,1)(O()))")
    assert t2.n == (1, 0)
    (lab, e, sub) = [c for c in t2.children if c[0] == K][0]
    assert e == (0, 1) and sub is noise(2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("(O()", dim=2)
    with pytest.raises(ParseError):
        parse("(Q())", dim=2)
    with pytest.raises(ParseError):
        parse("(n=(1,0,0) O())", dim=2)
    with pytest.raises(ParseError):
        parse("(O())  x", dim=2)
    with pytest.raises(ParseError):
        parse("()")  # dimension undetermined
    # a sign with no digits; a digit character int() does not read
    for text in ("(n=(-) O())", "(O^(-) ())", "(n=(\u00b2) O())"):
        with pytest.raises(ParseError, match="expected integer at byte 4"):
            parse(text)
    # the parser is the only check on decoration lengths: an edge
    # decoration against a given dim, and a node decoration against the
    # dim an earlier edge decoration fixed
    with pytest.raises(ParseError, match="length 2, expected 3 at byte 12$"):
        parse("(O() K^(1,0)(O()))", dim=3)
    with pytest.raises(ParseError, match="length 3, expected 2 at byte 22$"):
        parse("(O^(1,0)() K(n=(1,0,0) O()))")


def test_format_canonical_roundtrip():
    s = "(n=(1,2) O() K(O() K(H())))"
    t = parse(s)
    assert parse(format_tree(t)) is t


@st.composite
def trees(draw, depth=0, d=2, max_n=2, max_depth=3):
    """Canonical trees in dimension d with node decorations up to max_n,
    edge decorations in {0, 1} and at most max_depth edges on a path."""
    n = tuple(draw(st.integers(0, max_n)) for _ in range(d))
    children = []
    if depth < max_depth:
        for _ in range(draw(st.integers(0, 2))):
            lab = draw(st.sampled_from([OMEGA, H, K]))
            e = tuple(draw(st.integers(0, 1)) for _ in range(d))
            sub = draw(trees(depth + 1, d, max_n, max_depth))
            if lab == K and sub.is_poly():
                continue
            children.append((lab, e, sub))
    return Tree(n, tuple(children))


@given(trees())
def test_roundtrip_property(t):
    assert parse(format_tree(t), dim=2) is t


@given(trees(), trees())
def test_product_roundtrip(a, b):
    p = tree_product(a, b)
    assert parse(format_tree(p), dim=2) is p


def test_every_constructor_keeps_one_child_tuple():
    """A node stores its children once: the tuple in ``children`` is the
    one in the encoding, whichever constructor built the node, and every
    interned tree is keyed by its own encoding."""
    a = parse("(n=(2,1) O() K^(0,1)(O() H()))")
    b = Tree([0, 3], [(H, [1, 0], unit(2)), (OMEGA, (0, 0), unit(2))])
    fresh = Tree((next(_FRESH), 0), b.children)
    hit = parse("(n=(2,4) O() O() H^(1,0)() K^(0,1)(O() H()))")
    size = len(Tree._intern)
    assert tree_product(a, b) is hit
    miss = tree_product(a, fresh)
    assert len(Tree._intern) == size + 1
    for t in (a, a.children[-1][2], b, fresh, miss, hit,
              plant_tree(K, (1, 1), a), X((next(_FRESH), 2))):
        assert_one_tuple(t)
    assert all(key is t._enc and t._enc[1] is t.children
               for key, t in Tree._intern.items())


def test_tree_product_unit_returns_operand():
    t = parse("(n=(1,0) O() K(O()))")
    assert tree_product(t, unit(2)) is t
    assert tree_product(unit(2), t) is t
    assert tree_product(unit(2), unit(2)) is unit(2)
    with pytest.raises(ValueError):
        tree_product(t, unit(3))


def test_tree_product_builds_a_new_tree_once(monkeypatch):
    a = parse("(n=(7,3) O() K^(1,0)(O()))")
    b = parse("(n=(0,5) O() H^(0,2)())")
    size = len(Tree._intern)
    p = tree_product(a, b)
    assert len(Tree._intern) == size + 1
    assert p is parse("(n=(7,8) O() O() H^(0,2)() K^(1,0)(O()))")

    def refuse(cls, n, children):
        raise AssertionError("an interned product was rebuilt")

    c = Tree((1, 1), ((K, (0, 0), a), (H, (0, 1), unit(2)),
                      (OMEGA, (0, 0), unit(2))))

    # once interned, the product is found from the merged encodings
    monkeypatch.setattr(Tree, "__new__", refuse)
    assert tree_product(b, a) is p
    assert tree_product(a, b) is p

    # a new product, planting and polynomial are built without Tree()
    size = len(Tree._intern)
    q = tree_product(b, c)
    r = plant_tree(K, (4, 4), c)
    x = X((9, 9))
    assert len(Tree._intern) == size + 3
    monkeypatch.undo()
    assert_canonical_node(q, (1, 6), b.children + c.children)
    assert_canonical_node(r, (0, 0), [(K, (4, 4), c)])
    assert_canonical_node(x, (9, 9), [])


@given(trees(), trees())
def test_tree_product_is_the_canonical_tree(a, b):
    """The encoding merge finds the tree Tree() builds from the raw
    children, both when the product is new and when it is interned, and
    a new product keeps its children in Tree()'s order."""
    p = tree_product(a, b)
    assert_canonical_node(p, mi_add(a.n, b.n), a.children + b.children)
    assert tree_product(a, b) is p
    assert tree_product(b, a) is p
    # a product with a root decoration no earlier tree has is a miss
    fresh = Tree((next(_FRESH), 0), a.children)
    if not b.is_unit():
        size = len(Tree._intern)
        q = tree_product(b, fresh)
        assert len(Tree._intern) == size + 1
        assert_canonical_node(q, mi_add(fresh.n, b.n),
                              fresh.children + b.children)
        assert tree_product(fresh, b) is q


def _nested_encoding(t):
    """The encoding with every subtree replaced by its own encoding."""
    return (t.n, tuple((lab, e, _nested_encoding(sub))
                       for lab, e, sub in t.children))


@given(trees(), trees())
def test_tree_order_is_the_nested_encoding_order(a, b):
    """Encodings hold interned subtrees, and trees compare by them; the
    order is the lexicographic order of the fully nested encodings."""
    na, nb = _nested_encoding(a), _nested_encoding(b)
    assert (a < b) == (na < nb)
    assert (a is b) == (na == nb)


@given(trees(), st.sampled_from([OMEGA, H, K]))
def test_plantings_and_polynomials_are_canonical(t, lab):
    """plant_tree and X build through the presorted constructor; the
    result is the tree Tree() builds, new or interned."""
    k = (next(_FRESH), 1)
    if lab == K and t.is_poly():
        with pytest.raises(ValueError):
            plant_tree(lab, k, t)
    else:
        size = len(Tree._intern)
        p = plant_tree(lab, k, t)
        assert len(Tree._intern) == size + 1
        assert_canonical_node(p, (0, 0), [(lab, k, t)])
        assert plant_tree(lab, list(k), t) is p
    x = X(k)
    assert_canonical_node(x, k, [])
    assert X(list(k)) is x


def test_mi_helpers():
    assert list(weighted_range((1, 2), 2)) == [
        ((0, 0), 0), ((1, 0), 1), ((2, 0), 2), ((0, 1), 2)]
    assert mi_factorial((3, 2)) == 12
    assert mi_binom((3, 2), (1, 1)) == 6
    assert mi_binom((1, 0), (2, 0)) == 0
    assert sorted(mi_range((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(-2, 7))
def test_weighted_range_is_the_filtered_box(w, cap):
    """Every l with w.l <= cap, the cap itself included, with its weight,
    in mi_range order (the last entry varies slowest)."""
    box = product(range(max(cap, 0) + 1), repeat=len(w))
    expected = sorted(((l, sum(map(mul, w, l))) for l in box
                       if sum(map(mul, w, l)) <= cap),
                      key=lambda pair: pair[0][::-1])
    assert list(weighted_range(tuple(w), cap)) == expected


_TERMS = (unit(2), noise(2), X((1, 0)), (noise(2), unit(2)))
_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@given(st.lists(st.tuples(st.sampled_from(_TERMS), _COEFFS), max_size=12))
def test_lincomb_stores_integral_coefficients_as_int(adds):
    """Whatever mix of int and Fraction goes in, a stored coefficient is
    an int exactly when it is integral and a Fraction otherwise, and the
    sum, its zero terms and its repr are those of the all-Fraction sum."""
    v = LinComb()
    ref = {}
    for t, c in adds:
        v.add(t, c)
        ref[t] = ref.get(t, Fraction(0)) + Fraction(c)
    ref = {t: c for t, c in ref.items() if c}
    for c in v.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    assert v.terms == ref
    as_fractions = LinComb()
    as_fractions.terms = ref
    assert repr(v) == repr(as_fractions)


def test_lincomb_algebra():
    a = LinComb.single(noise(2), Fraction(1, 2))
    v = a.product(LinComb.single(unit(2), 2))
    assert v == LinComb.single(noise(2), 1)
