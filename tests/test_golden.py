"""Golden guards: exact Delta, Delta+ and S+ tables on pam_rule(3) at 9/6,
and the stdout of the exact-arithmetic README commands.

The table digests were recorded with the code of commit d5250fc, before the
degree bookkeeping moved to cached per-tree signatures and integer
weights.  Any change to a coefficient, a term or a truncation shows up
as a different sha256."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from ristruct.cli import main
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


# sha256 of the stdout of the exact-arithmetic README commands, recorded
# with the code of commit 64f9a25, before the symbolic sum types, the
# identity checks and the builtin configs were merged.  The five
# verification commands all print {"failures": [], "ok": true}, hence
# their shared digest.
CT_FILE = "counterterms.json"
GOLDEN_CLI = [
    (("sector", "gen", "pam3d"),
     "a0d69b27bf6f84ccaeda77a11976daaed146e5f55ec93bc4a4b7cf8abe81a33f"),
    (("sector", "gen", "numeric2d"),
     "44c32e8ca71010619cdf7d88c125ff2b538edbbe8b840ff7e2c13953161a716a"),
    (("coproduct", "(O() K(H()))", "--eps", "0", "--p", "5"),
     "c6dd5f61f2ebb88e20540f78a16bf6d21c52847c3c0e4d62c10b267926e40a8d"),
    (("coproduct", "(O() K(H()))", "--eps", "0", "--p", "5", "--graphical"),
     "c6dd5f61f2ebb88e20540f78a16bf6d21c52847c3c0e4d62c10b267926e40a8d"),
    (("phase", "numeric2d"),
     "00e58d555db3441d367e0ef6079c18f904b6d71ae98f9a48605030016cfc5124"),
    # recorded at 05764f9; covers the epsilon0_error path
    (("phase", "pam3d"),
     "a44975f8793e0dae8d62a1cf67146d740a1469cedbbededdb6d59ffbfc86dd93"),
    (("prep", "verify", CT_FILE, "--rule", "numeric2d"),
     "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
    (("verify", "hopf", "numeric2d", "--eps", "1/100", "--p", "5"),
     "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
    (("verify", "hopf", "pam3d"),
     "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
    (("verify", "triangularity", "pam3d"),
     "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
    (("verify", "triangularity", "numeric2d"),
     "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_CLI,
                         ids=[" ".join(a) for a, _d in GOLDEN_CLI])
def test_golden_cli_stdout(argv, digest, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / CT_FILE).write_text(json.dumps({"(O() K(O()))": "-1/3"}))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
