"""Schur–Weyl and its quantum and super versions: End^∨ of a braiding on
the tensor powers of K² is the degree-≤k part of O(M_2), of the FRT
bialgebra of GL_q(2), or of O(M(1|1)).  None of these coalgebras is
cocommutative, so an orientation error in Δ shows here."""

import json

import pytest

from tannakit import GF, QQ, Matrix
from tannakit.linalg import swap_perm

from conftest import FRT_R, SUPER_SWAP, SWAP, run_cli, schur_weyl_document


def run_passing(command, doc):
    code, out, _ = run_cli([command, "--json"], json.dumps(doc))
    out = json.loads(out)
    assert code == 0 and out["passed"], command
    return out


# generator on K²⊗K², dim End^∨ at k = 2, at k = 3
FAMILIES = {"swap": (SWAP, 15, 35), "frt": (FRT_R, 15, 35),
            "super": (SUPER_SWAP, 13, 25)}


@pytest.mark.parametrize("family, p", [("swap", None), ("swap", 101),
                                       ("frt", None), ("frt", 101),
                                       ("super", None), ("super", 101)],
                         ids=["Q", "F101", "frt-Q", "frt-F101",
                              "super-Q", "super-F101"])
def test_schur_weyl_2_2_reconstruction(family, p):
    r, dim_2, _ = FAMILIES[family]
    doc = schur_weyl_document(2, p, r)
    rec = run_passing("reconstruct", doc)
    dim = rec["quotient_dim"]
    assert dim == dim_2

    delta = rec["structure"]["delta"]
    psi_delta = [None] * len(delta)
    for i, j in enumerate(swap_perm(dim, dim)):
        psi_delta[j] = delta[i]
    assert psi_delta != delta

    lift = run_passing("lift", doc)
    doc = dict(doc, coalgebra=rec["structure"], comodules=lift["coactions"])
    rt = run_passing("rho-tilde", doc)
    field = QQ if p is None else GF(p)
    assert rt["bijective"] is True
    assert rt["rho_tilde"] == Matrix.identity(field, dim).to_strings()


def test_schur_weyl_2_3_nat_matches_endvee():
    out = run_passing("nat", schur_weyl_document(3, 101))
    assert out["coend_dim"] == out["nat_dim"] == 35


@pytest.mark.parametrize("family", ["frt", "super"])
def test_quantum_and_super_nat_at_degree_3(family):
    r, _, dim_3 = FAMILIES[family]
    out = run_passing("nat", schur_weyl_document(3, 101, r))
    assert out["coend_dim"] == out["nat_dim"] == dim_3
