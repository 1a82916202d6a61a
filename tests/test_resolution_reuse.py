"""syzygy, projdim, the resolution complexes and the comparison lifts all
read the one cached MinimalResolution of a module.

The cover -> kernel -> strip loops that syzygy and projdim ran before are
kept only here, as the reference: they strip projective summands at
every step.
"""

import numpy as np
import pytest

from quivhom.corpus import corpus, gentle_tree_algebra
from quivhom.functors import apply_to_module, lift_to_resolutions
from quivhom.homological import (
    DecompositionError,
    decompose,
    is_isomorphic,
    minimal_resolution,
    projdim,
    strip_projectives,
    syzygy,
)
from quivhom.modules import direct_sum, element_matrix_to_hom, hom_space, kernel, projective_cover, simple
from quivhom.stable import stable_image
from tests.conftest import random_module

DEGREES = (0, 1, 2, 3)
BOUNDS = (0, 1, 3, 6)


def loop_syzygy(m, k):
    cur, _ = strip_projectives(m)
    for _ in range(k):
        if cur.is_zero():
            return cur
        _, epi = projective_cover(cur)
        ker, _ = kernel(epi)
        cur, _ = strip_projectives(ker)
    return cur


def loop_projdim(m, bound):
    cur, _ = strip_projectives(m)
    for k in range(bound + 1):
        if cur.is_zero():
            return k
        _, epi = projective_cover(cur)
        ker, _ = kernel(epi)
        cur, _ = strip_projectives(ker)
    return None


def assert_same_as_loops(x):
    for k in DEGREES:
        new, old = syzygy(x, k), loop_syzygy(x, k)
        assert new.dims == old.dims, k
        assert is_isomorphic(new, old), k
    # the loop stops at its first zero syzygy, so one run at the largest
    # bound gives its answer at every smaller bound
    d = loop_projdim(x, max(BOUNDS))
    for bound in BOUNDS:
        assert projdim(x, bound) == (d if d is not None and d <= bound else None), bound


def corpus_modules(n):
    c = corpus(n)
    mods = list(c.indecomposables_A()) + list(c.indecomposables_B())
    for key in sorted(c.M):
        mods.append(c.M[key])
        mods.append(stable_image(c.F, c.M[key])[0])
    return mods


@pytest.mark.parametrize("n", [1, 2])
def test_corpus_modules_and_images_match_loops(n):
    for x in corpus_modules(n):
        assert_same_as_loops(x)


def test_random_modules_match_loops(keps):
    c = corpus(1)
    for alg in (c.A, c.B, c.Lam, c.Gam, keps):
        rng = np.random.default_rng(2026)
        for summands in (2, 2, 3):
            assert_same_as_loops(random_module(alg, rng, summands))


def test_diff_hom_is_the_element_matrix_differential():
    c = corpus(2)
    for x in c.indecomposables_A() + [c.M[key] for key in sorted(c.M)]:
        res = minimal_resolution(x, 4)
        for k in range(1, 5):
            d = res.diff_hom(k)
            ref = element_matrix_to_hom(x.algebra, res.dmats[k], res.terms[k], res.terms[k - 1])
            assert d.source is ref.source and d.target is ref.target
            assert all(d.mats[v] == ref.mats[v] for v in x.algebra.quiver.vertices)


def test_apply_and_lift_read_the_same_proj_complex():
    c = corpus(1)
    f, w = c.F, -3
    x, y = c.M[(0, 1)], c.M[(0, 2)]
    pc = minimal_resolution(x, -w).proj_complex(w)
    assert minimal_resolution(x, 0).proj_complex(w) is pc
    apply_to_module(f, x, w)
    assert any(key[1] == id(pc) and hit[0] is pc for key, hit in f._apply_cache.items() if key[0] == "apply")
    phi = hom_space(x, y)[0]
    lift = lift_to_resolutions(phi, w)
    assert lift.source is pc
    assert lift.target is minimal_resolution(y, -w).proj_complex(w)


def test_projdim_of_repeated_simple_needs_no_decomposition():
    # dim End(S_1^3) = 9 >= p = 3: decompose cannot certify the pieces,
    # but neither the length of the minimal resolution nor the stripping
    # of projective summands needs a decomposition
    alg = gentle_tree_algebra(1, p=3)
    s = simple(alg, "1")
    s3 = direct_sum([s, s, s])[0]
    with pytest.raises(DecompositionError):
        decompose(s3)
    assert projdim(s3, 5) == projdim(s, 5) == loop_projdim(s3, 5) == 2
