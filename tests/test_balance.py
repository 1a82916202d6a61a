"""Ext checked by balance: Ext^i_A(M, N) = Ext^i_(A^op)(DN, DM).

Ext and derived Hom read one resolution construction
(`complexes._Resolution`), so their agreement says nothing about how the
resolution is built.  The right-hand side here resolves DN, another
module over the opposite algebra, so a fault in the resolution step
shows up as a mismatch.
"""

import numpy as np
import pytest

from quivhom.corpus import corpus
from quivhom.homological import dual, ext
from quivhom.modules import simple
from quivhom.stable import stable_image
from tests.conftest import radical_square_zero, random_module


def balanced(m, n, i):
    return ext(m, n, i) == ext(dual(n), dual(m), i)


def corpus_groups(n):
    """Modules of the scale-n corpus, one list per algebra: the M(i, l)
    and the simples over Gamma, their stable images and the simples over
    Lambda, the indecomposables of A (the tau^-1-orbits of its
    projectives) and the interval modules of B (which include the simples
    of A and B)."""
    c = corpus(n)
    images = [stable_image(c.F, x)[0] for _, x in sorted(c.M.items())]
    return [
        list(c.M.values()) + [simple(c.Gam, v) for v in c.Gam.quiver.vertices],
        images + [simple(c.Lam, v) for v in c.Lam.quiver.vertices],
        c.indecomposables_A(),
        c.indecomposables_B(),
    ]


def test_balance_on_every_pair_of_corpus_modules():
    cases = [(m, n, i) for group in corpus_groups(2) for m in group for n in group for i in (1, 2)]
    unbalanced = [(list(m.dims.values()), list(n.dims.values()), i) for m, n, i in cases if not balanced(m, n, i)]
    assert not unbalanced, unbalanced[:5]
    assert len(cases) == 4248
    # nonzero often enough that a wrong resolution cannot hide behind zeros
    assert sum(1 for m, n, i in cases if ext(m, n, i)) > 1000


@pytest.mark.parametrize("name", ["A1", "B1", "Lam1", "Gam1", "keps", "radical_square_zero"])
def test_balance_on_random_pairs(name, request):
    alg = radical_square_zero() if name == "radical_square_zero" else request.getfixturevalue(name)
    rng = np.random.default_rng(len(name))
    mods = [random_module(alg, rng, summands=3) for _ in range(8)]
    cases = [(m, n, i) for m in mods for n in mods for i in (0, 1, 2, 3)]
    assert all(balanced(m, n, i) for m, n, i in cases)
    assert sum(1 for m, n, i in cases if i and ext(m, n, i)) >= 10
