"""The Ringel-Zhang rule against the Ext-row detector.

Over kQ[eps], Q acyclic, a module is GP iff its restriction to kQ is
projective, and kQ[eps] is 1-Gorenstein (self-injective without arrows).
`is_gorenstein_projective` certifies `gp` by that rule over Gamma = B[eps];
here `restriction_is_projective` is checked against the Ext-row verdict
(`_ext_row_verdict`), which resolves and reads Yoneda ranks, over Gamma
and over Lambda = A[eps], where A has relations and the rule is evidence,
not a theorem.
"""

import numpy as np
import pytest

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
from quivhom.homological import syzygy
from quivhom.modules import projective, simple
from quivhom.stable import stable_image
from tests.conftest import random_module


def _agrees(x):
    """restriction_is_projective(x), asserted equal to the Ext-row answer."""
    oracle = restriction_is_projective(x)
    assert oracle == _ext_row_verdict(x, 8).is_gp, x
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
        while drawn < 100:
            m = random_module(alg, rng)
            if m.is_zero():
                continue
            drawn += 1
            for x in (m, syzygy(m, 1), syzygy(m, 2)):
                if not x.is_zero():
                    answers.append(_agrees(x))
        # both answers occur, so a constant oracle would fail
        assert 0 < sum(answers) < len(answers)


def _eps(vertices, arrows):
    return BoundQuiverAlgebra(Quiver(vertices, arrows), []).dual_numbers_extension()


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
    # S (x) P_v, the base projective with eps acting by zero, is GP and
    # not projective; the rule certifies it with g read off the quiver
    alg = PATH_EXTENSIONS[name]()
    g = gorenstein_dimension(alg, 8)
    assert g == (1 if alg.base.quiver.arrows else 0)
    for v in alg.quiver.vertices:
        rep = is_gorenstein_projective(compress(module_complex(projective(alg.base, v)))[0], 8)
        assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right, rep.rule) == ("gp", g, [0] * g, [], RESTRICTION_RULE)
        assert "Ringel-Zhang" in repr(rep)


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


def test_the_rule_is_not_applied_over_lambda():
    # A has relations, so over Lambda the verdict comes from the Ext row
    c = corpus(1)
    for key in sorted(c.M):
        img, _ = stable_image(c.F, c.M[key])
        rep = is_gorenstein_projective(img, 8)
        assert (rep.verdict, rep.certificate, rep.rule) == ("gp", 2, None)


def test_the_restriction_needs_a_dual_numbers_extension():
    with pytest.raises(ValueError, match="not over a dual-numbers extension"):
        restriction_is_projective(simple(corpus(1).B, "0"))
