"""Compression: a complex C over b becomes the module over b[eps] whose
restriction is the sum of the terms of C, with eps acting by the
differential (`complexes.compress`).  Its eps-homology is the homology of
C, and the stable functor of the corpus is checked, on every interval,
against the compression of the transported complex."""

import numpy as np
import pytest

from quivhom.complexes import compress, cone, homology_dims, identity_chain_map
from quivhom.corpus import corpus, interval_complex
from quivhom.exactlin import rank
from quivhom.functors import apply_to_projective_complex
from quivhom.homological import find_iso, strip_projectives
from quivhom.modules import Representation
from quivhom.stable import stable_image
from tests.conftest import random_three_term_complex, random_two_term_complex


def eps_homology_dim(m):
    """dim ker eps - dim im eps = dim m - 2 rk eps, summed over the vertices."""
    return sum(d - 2 * rank(m.mats[m.algebra.loops[v]]) for v, d in m.dims.items())


@pytest.mark.parametrize("name", ["A1", "B1"])
def test_compressions_are_modules_with_the_homology_of_the_complex(name, request):
    """On 40 seeded complexes per algebra: the compression passes the
    relation check over b[eps], the terms come in descending degree, its
    eps-homology has the total dimension of the homology of the complex,
    and the compression of the (acyclic) cone of the identity has none."""
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(36)
    for k in range(40):
        make = random_two_term_complex if k % 2 else random_three_term_complex
        c = make(alg, rng, lo=int(rng.integers(-2, 2)))
        m, incls, projs = compress(c)
        assert m.algebra is alg.dual_numbers_extension()
        Representation(m.algebra, m.dims, m.mats)
        if not c.is_zero():
            assert [f.source for f in incls] == [p.target for p in projs] == [c.term(i) for i in reversed(c.degrees())]
        assert eps_homology_dim(m) == sum(homology_dims(c).values())
        assert eps_homology_dim(compress(cone(identity_chain_map(c))[0])[0]) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stable_images_are_the_compressions_of_the_transported_complexes(n):
    """F-bar(M(i, l)), the pipeline's stable image, is stably isomorphic to
    compress(F_BA(C(i, l))) for every interval: F is F_BA tensored with
    k[eps], and compression commutes with that.  The witness is a found
    isomorphism between the modules with their projective summands
    stripped, re-checked as a module map and as invertible.  The oracle
    shares `apply_to_projective_complex` with the pipeline, but no
    resolution, `minimize` or truncation.  A stable window of -1 fails
    every pair at n = 1 and 2; a window of -width - 1, one degree short of
    `FunctorData.stable_window`, still passes every pair at n <= 4, so this
    test does not see that fault."""
    c = corpus(n)
    assert len(c.M) == (2 * n + 2) * (2 * n + 3) // 2
    for (i, l), m in c.M.items():
        img, _ = stable_image(c.F, m)
        pred, _, _ = compress(apply_to_projective_complex(c.F_BA, interval_complex(c.B, i, l)).to_complex())
        assert img.algebra is pred.algebra is c.Lam
        f = find_iso(strip_projectives(img)[0], strip_projectives(pred)[0], 0)
        assert f is not None and f.verify() and f.is_iso(), (i, l)
