"""Schur–Weyl: End^∨ of the symmetric groups acting on the tensor powers
of K^d is the degree-≤k part of O(M_d), a coalgebra that is not
cocommutative, so an orientation error in Δ shows here."""

import io
import json
from math import comb

import pytest

from tannakit import GF, QQ, Matrix
from tannakit.cli import main
from tannakit.linalg import swap_perm

from conftest import schur_weyl_document


def run_passing(monkeypatch, capsys, command, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main([command, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"], command
    return out


@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
def test_schur_weyl_2_2_reconstruction(monkeypatch, capsys, p):
    d, k = 2, 2
    doc = schur_weyl_document(d, k, p)
    rec = run_passing(monkeypatch, capsys, "reconstruct", doc)
    dim = rec["quotient_dim"]
    assert dim == sum(comb(d * d + j - 1, j) for j in range(k + 1)) == 15

    delta = rec["structure"]["delta"]
    psi_delta = [None] * len(delta)
    for i, j in enumerate(swap_perm(dim, dim)):
        psi_delta[j] = delta[i]
    assert psi_delta != delta

    lift = run_passing(monkeypatch, capsys, "lift", doc)
    doc = dict(doc, coalgebra=rec["structure"], comodules=lift["coactions"])
    rt = run_passing(monkeypatch, capsys, "rho-tilde", doc)
    field = QQ if p is None else GF(p)
    assert rt["bijective"] is True
    assert rt["rho_tilde"] == Matrix.identity(field, dim).to_strings()


def test_schur_weyl_2_3_nat_matches_endvee(monkeypatch, capsys):
    out = run_passing(monkeypatch, capsys, "nat", schur_weyl_document(2, 3, 101))
    assert out["coend_dim"] == out["nat_dim"] == 35
