"""Golden guard: exact Delta, Delta+ and S+ tables on pam_rule(3) at 9/6.

The digests were recorded with the code of commit d5250fc, before the
degree bookkeeping moved to cached per-tree signatures and integer
weights.  Any change to a coefficient, a term or a truncation shows up
as a different sha256."""

import hashlib
from fractions import Fraction as F

import pytest

from ristruct.config import pam3d_params
from ristruct.hopf import Hopf
from ristruct.sector import generate_from_rule, pam_rule
from ristruct.trees import format_tree

EPS, INVP = F(1, 100), F(0)

GOLDEN = {
    "delta":
        "5131abb3c8ef4318659d3a31f184f272a8e38572ceb6b0e4f9bcae415eb8936d",
    "delta_plus":
        "3122f40fcb0318b519e4a4ffc14af411a9ba2e38178e60f283afe3622f41fbd5",
    "antipode":
        "e3f9793912906f1ab03a0b128e6980a2f3b8333f28cdf7ac0f7e2756601fabf9",
}


def _digest(rows_by_key) -> str:
    lines = sorted(key + " :: " + " ; ".join(sorted(rows))
                   for key, rows in rows_by_key)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pairs(ts):
    return [f"{format_tree(a)} | {format_tree(b)} | {c}"
            for (a, b), c in ts]


@pytest.fixture(scope="module")
def tables():
    params = pam3d_params()
    sector = generate_from_rule(pam_rule(3), max_omega=6,
                                poly_bound=F(2), params=params, max_edges=9)
    hopf = Hopf(params)
    gens = sector.w_plus_generators(EPS, INVP)
    return {
        "delta": _digest(
            (format_tree(t), _pairs(hopf.coproduct(t, EPS, INVP)))
            for t in sector.members()),
        "delta_plus": _digest(
            (format_tree(g), _pairs(hopf.coproduct_plus(g, EPS, INVP)))
            for g in gens),
        "antipode": _digest(
            (format_tree(g), [f"{format_tree(f)} | {c}"
                              for f, c in hopf.antipode(g, EPS, INVP)])
            for g in gens),
    }


@pytest.mark.parametrize("table", sorted(GOLDEN))
def test_golden_tables_pam3d_9_6(tables, table):
    assert tables[table] == GOLDEN[table]
