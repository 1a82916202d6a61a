"""The restriction rule against the Ext-row detector.

Over a dual-numbers extension A[eps], A Gorenstein, a module is GP iff its
restriction to A is projective, and A[eps] has the Gorenstein dimension of
A (Eckmann-Shapiro, in the `gorenstein` module docstring; over kQ[eps], Q
acyclic, the Ringel-Zhang rule).  `is_gorenstein_projective` certifies
`gp` by that rule over Gamma = B[eps] and Lambda = A[eps]; here its
report is checked against the Ext-row verdict (`_ext_row_verdict`), which
resolves and reads Yoneda ranks, and the rule's g against the projdims
of the extension's own injective cogenerators, over bases with and
without relations.  `gorenstein_dimension` of an extension reads its
base, and resolves no module over the extension.
"""

import numpy as np
import pytest

from quivhom import gorenstein
from quivhom.algebra import BoundQuiverAlgebra, Quiver, dual_numbers, linear_algebra_An
from quivhom.complexes import compress, module_complex
from quivhom.corpus import corpus
from quivhom.gorenstein import (
    RESTRICTION_RULE,
    _ext_row_verdict,
    gorenstein_dimension,
    is_gorenstein_projective,
    restriction_is_projective,
)
from quivhom.homological import dual, projdim, syzygy
from quivhom.modules import is_projective, projective, regular_module, simple
from quivhom.stable import stable_image
from tests.conftest import radical_square_zero, random_module


def _agrees(x):
    """Whether x is GP: the production report, asserted equal to the
    Ext-row verdict, with the rule named iff the restriction is projective
    and x is not (a projective is `gp` with no certificate)."""
    rep, ref = is_gorenstein_projective(x, 8), _ext_row_verdict(x, 8)
    oracle = restriction_is_projective(x)
    assert oracle == ref.is_gp, x
    if is_projective(x):
        assert (rep.verdict, rep.certificate, rep.rule) == ("gp", None, None), x
        return True
    assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right, rep.witness) == (
        ref.verdict, ref.certificate, ref.ext_left, ref.ext_right, ref.witness
    ), x
    assert rep.rule == (RESTRICTION_RULE if oracle else None), x
    return oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_rule_agrees_on_the_classification(n):
    c = corpus(n)
    pairs = sorted(c.M)
    assert len(pairs) == (2 * n + 2) * (2 * n + 3) // 2
    for key in pairs:
        m = c.M[key]
        img, _ = stable_image(c.F, m)
        assert m.algebra is c.Gam and img.algebra is c.Lam
        assert _agrees(m) and _agrees(img)


@pytest.mark.parametrize("n", [1, 2])
def test_the_rule_agrees_on_random_modules_and_syzygies(n):
    c = corpus(n)
    for alg, seed in ((c.Gam, 10 * n), (c.Lam, 10 * n + 1)):
        rng = np.random.default_rng(seed)
        answers = []
        drawn = 0
        while drawn < 150:
            m = random_module(alg, rng)
            if m.is_zero():
                continue
            drawn += 1
            for x in (m, syzygy(m, 1), syzygy(m, 2)):
                if not x.is_zero():
                    answers.append(_agrees(x))
        # both answers occur on each algebra, so a constant oracle would fail
        assert len(answers) >= 200
        assert 0 < sum(answers) < len(answers)


def _resolved_gorenstein_dimension(alg, bound):
    """The Gorenstein dimension of alg resolved over alg itself: the
    largest projdim of the injective cogenerator of each side, or None
    when one exceeds bound (the body `gorenstein_dimension` has for an
    algebra that is no extension)."""
    pds = [projdim(dual(regular_module(side.opposite())), bound) for side in (alg, alg.opposite())]
    return None if None in pds else max(pds)


def _eps(vertices, arrows):
    return BoundQuiverAlgebra(Quiver(vertices, arrows), []).dual_numbers_extension()


def _stalks_take_the_rule(alg, g, bound):
    """S (x) P_v, the compression of the stalk of the base projective P_v
    (eps acting by zero), restricts to a projective and is not projective:
    the rule certifies it with g, or, when g is None, the Ext row decides."""
    for v in alg.quiver.vertices:
        x = compress(module_complex(projective(alg.base, v)))[0]
        assert restriction_is_projective(x) and not is_projective(x)
        rep = is_gorenstein_projective(x, bound)
        if g is None:
            ref = _ext_row_verdict(x, bound)
            assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right, rep.rule) == (
                ref.verdict, ref.certificate, ref.ext_left, ref.ext_right, None
            )
        else:
            assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right, rep.rule) == ("gp", g, [0] * g, [], RESTRICTION_RULE)
            assert "Ringel-Zhang" in repr(rep)


PATH_EXTENSIONS = {
    "k[eps]": dual_numbers,
    **{f"A_{m}[eps]": lambda m=m: linear_algebra_An(m).dual_numbers_extension() for m in (1, 2, 3, 5)},
    "Kronecker[eps]": lambda: _eps(["0", "1"], [("a", "0", "1"), ("b", "0", "1")]),
    "D_4[eps]": lambda: _eps(["0", "1", "2", "3"], [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")]),
    "(A_2 + point)[eps]": lambda: _eps(["0", "1", "2"], [("a", "0", "1")]),
    **{f"Gamma({n})": lambda n=n: corpus(n).Gam for n in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(PATH_EXTENSIONS))
def test_the_closed_form_g_is_the_gorenstein_dimension(name):
    # Ringel-Zhang: kQ[eps] is 1-Gorenstein, self-injective without arrows
    alg = PATH_EXTENSIONS[name]()
    g = gorenstein_dimension(alg, 8)
    assert g == _resolved_gorenstein_dimension(alg, 8) == (1 if alg.base.quiver.arrows else 0)
    _stalks_take_the_rule(alg, g, 8)


# base, the bound its Gorenstein dimension is read within, and that dimension
BASES_WITH_RELATIONS = {
    **{f"A({n})": (lambda n=n: corpus(n).A, 8, 2) for n in (1, 2)},
    "k[x]/(x^2)": (lambda: BoundQuiverAlgebra(Quiver(["0"], [("x", "0", "0")]), [{("0", ("x", "x")): 1}]), 8, 0),
    # self-injective of infinite global dimension
    "2-cycle, rad^2 = 0": (
        lambda: BoundQuiverAlgebra(
            Quiver(["0", "1"], [("a", "0", "1"), ("b", "1", "0")]), [{("0", ("a", "b")): 1}, {("1", ("b", "a")): 1}]
        ),
        8,
        0,
    ),
    "A_3, b0 b1 = 0": (lambda: BoundQuiverAlgebra(linear_algebra_An(3).quiver, [{("0", ("b0", "b1")): 1}]), 8, 2),
    # not Gorenstein: no g within the bound, so the Ext row decides
    "k<x, y>/(x, y)^2": (radical_square_zero, 4, None),
}


@pytest.mark.parametrize("name", list(BASES_WITH_RELATIONS))
def test_the_extension_of_a_base_with_relations_has_its_gorenstein_dimension(name):
    make, bound, g = BASES_WITH_RELATIONS[name]
    base = make()
    alg = base.dual_numbers_extension()
    assert gorenstein_dimension(alg, bound) == _resolved_gorenstein_dimension(alg, bound) == g
    _stalks_take_the_rule(alg, g, bound)


def test_the_extension_resolves_no_module_of_its_own(monkeypatch):
    """g(A[eps]) is read off A: every projdim that `gorenstein_dimension`
    of a fresh extension asks for is over A or its opposite."""
    asked = []

    def recorded(m, bound):
        asked.append(m.algebra)
        return projdim(m, bound)

    monkeypatch.setattr(gorenstein, "projdim", recorded)
    base = BASES_WITH_RELATIONS["A_3, b0 b1 = 0"][0]()
    alg = base.dual_numbers_extension()
    assert gorenstein_dimension(alg, 8) == 2
    assert asked and set(map(id, asked)) <= {id(base), id(base.opposite())}, asked


def test_a_refutation_over_gamma_keeps_its_ext_row_and_witness():
    # the simple at the sink restricts to a projective; the others are
    # refuted by the Ext row with the witness they had before the rule
    c = corpus(1)
    verdicts = []
    for v in c.Gam.quiver.vertices:
        s = simple(c.Gam, v)
        rep, ref = is_gorenstein_projective(s, 8), _ext_row_verdict(s, 8)
        assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right, rep.witness) == (
            ref.verdict, ref.certificate, ref.ext_left, ref.ext_right, ref.witness
        )
        assert rep.rule == (RESTRICTION_RULE if restriction_is_projective(s) else None)
        verdicts.append(rep.verdict)
    assert verdicts == ["refuted", "refuted", "refuted", "gp"]


def test_the_rule_certifies_every_lambda_image():
    # A has relations and g(A) = 2, so each image is certified with g = 2
    c = corpus(1)
    for key in sorted(c.M):
        img, _ = stable_image(c.F, c.M[key])
        rep = is_gorenstein_projective(img, 8)
        assert (rep.verdict, rep.certificate, rep.ext_left, rep.rule) == ("gp", 2, [0, 0], RESTRICTION_RULE)


def test_the_restriction_needs_a_dual_numbers_extension():
    with pytest.raises(ValueError, match="not over a dual-numbers extension"):
        restriction_is_projective(simple(corpus(1).B, "0"))
