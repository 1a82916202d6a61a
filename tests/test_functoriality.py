"""The substitution is strictly functorial on chain maps.

F acts on a chain map of projective complexes by substituting the image
of every entry; since the arrow maps satisfy the relations on the nose,
F(psi o phi) = F(psi) o F(phi) and F(id) = id hold as chain maps, not
only up to homotopy.  Checked on seeded random maps between corpus
modules, lifted to their minimal resolutions, under a nontrivial
functor, a composite, the identity and a shift.
"""

import numpy as np
import pytest

from quivhom.corpus import corpus
from quivhom.functors import (
    apply_to_proj_chain_map,
    compose,
    identity_functor,
    lift_to_resolutions,
    shift_functor,
)
from quivhom.modules import hom_space, zero_hom
from quivhom.projcplx import identity_proj_chain_map

WINDOW = -3


def random_hom(x, y, rng):
    phi = zero_hom(x, y)
    for b in hom_space(x, y):
        phi = phi + b.scale(int(rng.integers(0, x.p)))
    return phi


def random_composable_pairs(c, rng, count):
    """(phi, psi) with phi: X -> Y and psi: Y -> Z both nonzero."""
    keys = sorted(c.M)
    pairs = []
    while len(pairs) < count:
        x, y, z = (c.M[keys[rng.integers(0, len(keys))]] for _ in range(3))
        phi, psi = random_hom(x, y, rng), random_hom(y, z, rng)
        if not phi.is_zero() and not psi.is_zero():
            pairs.append((phi, psi))
    return pairs


def equal_chain_maps(a, b) -> int:
    """Assert a and b have the same vertex matrices in every degree;
    returns the number of (degree, vertex) blocks compared."""
    ca, cb = a.to_chain_map(), b.to_chain_map()
    assert ca.source is cb.source and ca.target is cb.target
    lo = min(ca.source.lo, ca.target.lo)
    hi = max(ca.source.hi, ca.target.hi)
    checks = 0
    for i in range(lo, hi + 1):
        ma, mb = ca.map(i), cb.map(i)
        for v in ma.mats:
            assert ma.mats[v] == mb.mats[v], f"degree {i}, vertex {v}"
            checks += 1
    return checks


@pytest.mark.parametrize("n", [1, 2])
def test_substitution_is_strictly_functorial(n):
    c = corpus(n)
    functors = {
        "F": c.F,
        "FG": compose(c.F, c.G),
        "id": identity_functor(c.Gam),
        "shift2": shift_functor(c.Gam, 2),
    }
    rng = np.random.default_rng(100 + n)
    pairs = random_composable_pairs(c, rng, 4)
    checks = 0
    for phi, psi in pairs:
        lphi = lift_to_resolutions(phi, WINDOW)
        lpsi = lift_to_resolutions(psi, WINDOW)
        assert lphi.target is lpsi.source
        for name, f in functors.items():
            composite = apply_to_proj_chain_map(f, lpsi.compose(lphi))
            stepwise = apply_to_proj_chain_map(f, lpsi).compose(apply_to_proj_chain_map(f, lphi))
            checks += equal_chain_maps(composite, stepwise)
            for pc in (lphi.source, lphi.target):
                fid = apply_to_proj_chain_map(f, identity_proj_chain_map(pc))
                checks += equal_chain_maps(fid, identity_proj_chain_map(fid.source))
    assert checks > 0
