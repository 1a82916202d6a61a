"""One projective resolution per complex, extended downward on demand.

Every window of a complex reads the one construction kept on it, so
asking for windows in any order must give exactly what a fresh copy of
the complex, resolved from scratch down to that window, gives: the same
term vertex lists, differentials and comparison components.
"""

import numpy as np
import pytest

from quivhom.complexes import Complex, hom_d_dim, localization_compare, module_complex, projective_resolution, shift
from quivhom.homological import ext
from quivhom.modules import ProjSummands, hom_space, simple, zero_hom
from tests.conftest import random_module, random_two_term_complex

WINDOWS = [-1, -2, -3, -4, -5, -6]


def fresh_copy(c):
    return Complex(c.algebra, dict(c.terms), dict(c.diffs), check=False)


def assert_same_resolution(got, want):
    (pc, cmp), (pc0, cmp0) = got, want
    assert sorted(pc.terms) == sorted(pc0.terms)
    for i in pc.terms:
        assert pc.terms[i].vertices == pc0.terms[i].vertices, i
    assert pc.dmats == pc0.dmats
    assert sorted(cmp.maps) == sorted(cmp0.maps)
    for i, f in cmp.maps.items():
        assert f.mats == cmp0.maps[i].mats, i


def localization_pair(alg, rng):
    """x = (m -> P) in degrees [0, 1] with P projective, as in the
    localization criterion."""
    m = random_module(alg, rng)
    verts = list(alg.quiver.vertices)
    P = ProjSummands(alg, [verts[rng.integers(0, len(verts))] for _ in range(2)]).rep()
    d = zero_hom(m, P)
    for b in hom_space(m, P):
        d = d + b.scale(int(rng.integers(0, alg.p)))
    return Complex(alg, {0: m, 1: P}, {0: d})


def complexes(alg, seed):
    rng = np.random.default_rng(seed)
    return [
        module_complex(random_module(alg, rng)),
        shift(module_complex(random_module(alg, rng)), -2),
        random_two_term_complex(alg, rng),
        random_two_term_complex(alg, rng, lo=-1),
        localization_pair(alg, rng),
    ]


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps"])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_every_window_equals_a_fresh_resolution(name, order, request):
    alg = request.getfixturevalue(name)
    windows = {
        "ascending": sorted(WINDOWS),
        "descending": sorted(WINDOWS, reverse=True),
        "shuffled": list(np.random.default_rng(5).permutation(WINDOWS)),
    }[order]
    for c in complexes(alg, seed=len(name)):
        for w in windows:
            assert_same_resolution(projective_resolution(c, int(w)), projective_resolution(fresh_copy(c), int(w)))
        assert c._cache["_resolution"].lo == min(WINDOWS)
        assert not [k for k in c._cache if isinstance(k, tuple) and k[0] == "res"]


def test_stalk_complex_is_cached_on_its_module(keps):
    m = simple(keps, "0")  # periodic resolution: one P per degree
    c = module_complex(m)
    assert module_complex(m) is c
    for i in range(5):
        assert hom_d_dim(module_complex(m), module_complex(m), i) == ext(m, m, i)
    # degrees 0..4 need windows -2..-6: seven steps in all, made once
    res = c._cache["_resolution"]
    assert res.lo == -6
    assert sorted(res.psums) == list(range(-6, 1))


def test_localization_shifts_extend_one_resolution(keps):
    rng = np.random.default_rng(11)
    x = localization_pair(keps, rng)
    y = random_two_term_complex(keps, rng)
    for n in range(-3, 2):
        rep = localization_compare(x, y, n)
        assert rep.hom_d_dim == hom_d_dim(fresh_copy(x), y, n)
    assert x._cache["_resolution"].lo == y.lo - 1 - 2
