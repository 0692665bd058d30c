"""Each public shape guard raises its exception and message.

These are the argument checks that no other test reaches: a caller that
passes maps of the wrong shape is stopped before any arithmetic runs.
"""

import re

import pytest

from tannakit import Matrix, QQ
from tannakit.catpres import (DualityData, FiberFunctor, Generator, PresentationError,
                              PresentedCategory, path_eval)
from tannakit.coend import counit, natvee, pairing_to_nat
from tannakit.fields import GF
from tannakit.hopf import (AlgebraData, BialgebraData, CoalgebraData, ComoduleData,
                           HopfData, check_comodule_morphism, convolution)
from tannakit.linalg import SubspaceBasis, quotient
from tannakit.moncat import DualPairing, dual_map, standard_pairing
from tannakit.report import VerificationError
from tannakit.tannaka import comodule_morphism_space, rep_of_comodule, rho_tilde


def zeros(rows, cols):
    return Matrix.zeros(QQ, rows, cols)


def ident(n):
    return Matrix.identity(QQ, n)


def line():
    """The one-dimensional coalgebra K."""
    return CoalgebraData(1, ident(1), ident(1))


def trivial_comodule(space_dim, coalgebra_dim=1):
    return ComoduleData(coalgebra_dim, space_dim, zeros(coalgebra_dim * space_dim, space_dim))


def loop(dim, g=None):
    """One object V of dimension ``dim`` with one generator g: V → V."""
    cat = PresentedCategory(["V"], [Generator("g", "V", "V")])
    return cat, FiberFunctor(QQ, {"V": dim}, {"g": ident(dim) if g is None else g})


def end_presentation():
    cat, F = loop(2)
    return natvee(cat, F, F)


GUARDS = {
    # hopf
    "coalgebra eps": (lambda: CoalgebraData(1, ident(1), zeros(1, 2)),
                      ValueError, "eps must be 1 x dim"),
    "algebra m": (lambda: AlgebraData(2, zeros(2, 2), zeros(2, 1)),
                  ValueError, "m must be dim x dim^2"),
    "algebra u": (lambda: AlgebraData(1, ident(1), zeros(1, 2)),
                  ValueError, "u must be dim x 1"),
    "bialgebra dims": (lambda: BialgebraData(line(), AlgebraData(2, zeros(2, 4), zeros(2, 1))),
                       ValueError, "coalgebra and algebra dimensions differ"),
    "hopf antipode": (lambda: HopfData(BialgebraData(line(), AlgebraData(1, ident(1), ident(1))),
                                       zeros(2, 2)),
                      ValueError, "antipode must be dim x dim"),
    "comodule checks": (lambda: trivial_comodule(1, 2).checks(line()),
                        ValueError, "coalgebra dimension mismatch"),
    "comodule morphism": (lambda: check_comodule_morphism(
                              zeros(2, 2), trivial_comodule(1), trivial_comodule(1), line()),
                          ValueError, "map shape does not match the comodules"),
    "convolution domain": (lambda: convolution(zeros(1, 2), zeros(1, 1), line(),
                                               AlgebraData(1, ident(1), ident(1))),
                           ValueError, "convolution operands must start at the coalgebra"),
    "convolution codomain": (lambda: convolution(zeros(2, 1), zeros(1, 1), line(),
                                                 AlgebraData(1, ident(1), ident(1))),
                             ValueError, "convolution operands must land in the algebra"),
    # coend
    "natvee fields": (lambda: natvee(loop(1)[0], loop(1)[1],
                                     FiberFunctor(GF(2), {"V": 1}, {})),
                      ValueError, "functors live over different fields"),
    "pairing_to_nat": (lambda: pairing_to_nat(end_presentation(), zeros(2, 4)),
                       ValueError, "functional must be 1 x quotient_dim"),
    "counit F != G": (lambda: counit(natvee(loop(1)[0], loop(1)[1], loop(2)[1])),
                      ValueError, "counit needs an End presentation (F = G)"),
    # linalg
    "ragged rows": (lambda: Matrix(QQ, [[QQ.one(), QQ.one()], [QQ.one()]]),
                    ValueError, "ragged matrix rows"),
    "matmul": (lambda: ident(2) @ ident(3),
               ValueError, "composition mismatch: 2x2 @ 3x3"),
    "quotient ambient": (lambda: quotient(3, SubspaceBasis(QQ, 2, [])),
                         ValueError, "relations live in the wrong ambient space"),
    # moncat
    "pairing eval": (lambda: DualPairing(2, zeros(1, 3), zeros(4, 1)),
                     ValueError, "eval must be 1 x dim^2"),
    "pairing coeval": (lambda: DualPairing(2, zeros(1, 4), zeros(3, 1)),
                       ValueError, "coeval must be dim^2 x 1"),
    "dual_map codomain": (lambda: dual_map(zeros(2, 3), standard_pairing(3),
                                           standard_pairing(3)),
                          ValueError, "p_dom must pair the codomain of f"),
    "dual_map domain": (lambda: dual_map(zeros(2, 3), standard_pairing(2),
                                         standard_pairing(2)),
                        ValueError, "p_cod must pair the domain of f"),
    # tannaka
    "rho_tilde coaction": (lambda: rho_tilde(line(), *loop(2), {"V": trivial_comodule(1)}),
                           VerificationError, "coaction at 'V' has wrong dimension"),
    "rep_of_comodule": (lambda: rep_of_comodule(trivial_comodule(1), zeros(1, 2)),
                        ValueError, "character must be a functional on the coalgebra"),
    "comodule_morphism_space": (lambda: comodule_morphism_space(trivial_comodule(1),
                                                                trivial_comodule(1, 2)),
                                ValueError, "comodules over different coalgebras"),
    # catpres
    "path_eval": (lambda: path_eval(*loop(1, ident(2)), loop(1)[0].path(["g"])),
                  PresentationError, "matrix for 'g' has shape 2x2, expected 1x1"),
    "dual": (lambda: DualityData({}, {}, {}).dual("V"),
             PresentationError, "no dual declared for 'V'"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_a_shape_guard_raises_its_error(name):
    call, exc, message = GUARDS[name]
    with pytest.raises(exc, match="^%s$" % re.escape(message)):
        call()
