"""Golden guards: exact Delta, Delta+ and S+ tables on the pam3d rule at 9/6,
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
from ristruct.config import builtin_rule_config
from ristruct.hopf import Hopf
from ristruct.trees import format_tree

from reference import builtin_sector

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
    sector = builtin_sector("pam3d", maxOmega=6, maxEdges=9)
    hopf = Hopf(sector.params)
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


# sha256 of the stdout of four commands on the builtin rules with an
# anisotropic scaling, whose weights have common denominator D = 2,
# recorded with the code of commit d7db144, before the truncation
# arithmetic moved to Params.weights and one weighted lattice walk.  At
# eps = 0 and p = 5 the scaled pam3d rule has a tie (the planted degree
# of (H()) along K is 1 = |(1,0,0)|_s), so its coproduct exits 1 with
# the message on stderr and prints nothing.
ANISOTROPIC = {"numeric2d": ["1", "1/2"], "pam3d": ["1", "1", "1/2"]}
RULE_FILE = "rule.json"
GOLDEN_ANISOTROPIC = [
    ("numeric2d", ("sector", "gen", RULE_FILE), 0,
     "ea74b356a18cd6c1af755a1be528f0de269395316790c7ccd289176d4b6d0336"),
    ("numeric2d", ("phase", RULE_FILE), 0,
     "4be62104df032a121721ca240943b105cc90d8366d4a27172cc5cbfa9b8d0a32"),
    ("numeric2d", ("verify", "hopf", RULE_FILE, "--eps", "1/100", "--p", "5"),
     0, "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
    ("numeric2d", ("coproduct", "(O() K(H()))", "--eps", "0", "--p", "5",
                   "--rule", RULE_FILE), 0,
     "7c17cecdb2d6d078c598b19d148338d451214497a58b68df386cefa87b8691f1"),
    ("pam3d", ("sector", "gen", RULE_FILE), 0,
     "26e6a361e0685edb5b809084891b995a1fb1d760c66bc776e9e1b346ab237286"),
    ("pam3d", ("phase", RULE_FILE), 0,
     "37a623a3621ea6e3ba5955dbddb825497b35149493fa730c3d451296b6a36cde"),
    ("pam3d", ("verify", "hopf", RULE_FILE, "--eps", "1/100", "--p", "5"),
     0, "80a05d2beed2e295d5ca8d864704ad01860334821415d450698081f3f52e591b"),
    ("pam3d", ("coproduct", "(O() K(H()))", "--eps", "0", "--p", "5",
               "--rule", RULE_FILE), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]
ANISOTROPIC_STDERR = {
    ("pam3d", "coproduct"):
        '{"error": "planted degree vanishes: label K, k+l=(1, 0, 0)"}\n'}


@pytest.mark.parametrize(
    "name,argv,code,digest", GOLDEN_ANISOTROPIC,
    ids=[f"{n} {a[0]}" for n, a, _c, _d in GOLDEN_ANISOTROPIC])
def test_golden_cli_stdout_anisotropic(name, argv, code, digest, capsys,
                                       tmp_path, monkeypatch):
    """The builtin rule with its scaling replaced and the bounds set to
    maxEdges 5, maxOmega 4."""
    monkeypatch.chdir(tmp_path)
    cfg = builtin_rule_config(name)
    cfg["params"] = dict(cfg["params"], scaling=ANISOTROPIC[name])
    cfg.update(maxEdges=5, maxOmega=4)
    (tmp_path / RULE_FILE).write_text(json.dumps(cfg))
    got = main(list(argv))
    captured = capsys.readouterr()
    assert (got, captured.err) == (
        code, ANISOTROPIC_STDERR.get((name, argv[0]), ""))
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
