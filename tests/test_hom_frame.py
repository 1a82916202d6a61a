"""A Hom space has one representation, the `HomFrame` of `hom_frame(m, n)`.

The frame is built straight from the echelon rows, and the basis maps
(`hom_space`) and the composites of a whole basis with a map are read off
it.  The two-step path it replaced is kept here as the reference: a Hom
basis as maps, from the nullspace of the Kronecker constraint system, its
flat columns stacked map by map, and one `compose` per basis map.
"""

import itertools

import numpy as np
import pytest

from quivhom.complexes import hom_d_dim, hom_k_dim, module_complex
from quivhom.corpus import corpus
from quivhom.exactlin import Matrix
from quivhom.modules import HomFrame, RepHom, hom_frame, hom_space, simple, zero_hom
from quivhom.stable import stable_image
from tests.conftest import random_module, random_two_term_complex
from tests.test_hom_coordinates import reference_hom_space


def reference_map(m, n, vec):
    """The map m -> n with flat coordinates vec, checked to be a module map."""
    mats, off = {}, 0
    for v in m.algebra.quiver.vertices:
        rows, cols = n.dims[v], m.dims[v]
        mats[v] = Matrix(m.p, vec[off : off + rows * cols].reshape(rows, cols))
        off += rows * cols
    return RepHom(m, n, mats)


def stacked(vecs, total):
    """Flat vectors as the columns of one array."""
    return np.stack(vecs, axis=1) if vecs else np.zeros((total, 0), dtype=np.int64)


def total_dim(m, n):
    return sum(n.dims[v] * m.dims[v] for v in m.algebra.quiver.vertices)


def some_map(m, n, rng):
    """A random combination of the reference basis of Hom(m, n)."""
    acc = zero_hom(m, n)
    for vec in reference_hom_space(m, n):
        acc = acc + reference_map(m, n, vec).scale(int(rng.integers(0, m.p)))
    return acc


def corpus_groups(n):
    """Every M(i, l) of the corpus at scale n, its stable image under F
    and the simples of both algebras, grouped by algebra."""
    c = corpus(n)
    images = [stable_image(c.F, x)[0] for _, x in sorted(c.M.items())]
    return [
        list(c.M.values()) + [simple(c.Gam, v) for v in c.Gam.quiver.vertices],
        images + [simple(c.Lam, v) for v in c.Lam.quiver.vertices],
    ]


def random_groups():
    """Seeded random modules over A, Lambda and Gamma at n = 1."""
    c = corpus(1)
    rng = np.random.default_rng(19)
    return [[random_module(alg, rng, summands=int(rng.integers(1, 4))) for _ in range(5)] for alg in (c.A, c.Lam, c.Gam)]


@pytest.mark.parametrize("inputs", ["corpus1", "corpus2", "random1"])
def test_the_frame_is_the_two_step_path(inputs):
    groups = {"corpus1": lambda: corpus_groups(1), "corpus2": lambda: corpus_groups(2), "random1": random_groups}[inputs]()
    rng = np.random.default_rng(23)
    nonzero = composites = 0
    for group in groups:
        for (k, a), b in itertools.product(enumerate(group), group):
            frame = hom_frame(a, b)
            want = reference_hom_space(a, b)
            maps = [reference_map(a, b, vec) for vec in want]
            total = total_dim(a, b)
            assert (frame.source, frame.target) == (a, b)
            assert np.array_equal(frame.flats, stacked(want, total))
            assert np.array_equal(frame.flats, stacked([f.flat() for f in hom_space(a, b)], total))
            assert frame.dim == len(want)
            assert frame.free.tolist() == [int(np.flatnonzero(vec)[-1]) for vec in want]
            assert [f.mats for f in frame.basis()] == [f.mats for f in maps]
            # g after every basis map, and every basis map after f
            c, z = group[(k + 1) % len(group)], group[k - 1]
            g, f = some_map(b, c, rng), some_map(z, a, rng)
            post = frame.postcompose(g)
            pre = frame.precompose(f)
            assert np.array_equal(post, stacked([g.compose(h).flat() for h in maps], total_dim(a, c)))
            assert np.array_equal(pre, stacked([h.compose(f).flat() for h in maps], total_dim(z, b)))
            nonzero += bool(want)
            composites += bool(post.any() and pre.any())
    assert nonzero and composites


def complexes_and_pairs():
    """Stalk complexes of corpus modules at n = 1 and seeded random
    two-term complexes, with the shifts at which to ask for Hom."""
    c = corpus(1)
    rng = np.random.default_rng(29)
    stalks = [module_complex(x) for _, x in sorted(c.M.items())[:4]]
    randoms = [random_two_term_complex(c.A, rng, lo) for lo in (0, 1)]
    return [(x, y, n) for x, y in itertools.product(stalks + randoms, repeat=2) if x.algebra is y.algebra for n in (-1, 0, 1)]


def test_hom_dimensions_build_no_maps(monkeypatch):
    cases = complexes_and_pairs()
    want = [(hom_k_dim(x, y, n), hom_d_dim(x, y, n)) for x, y, n in cases]
    assert any(k and d for k, d in want)

    def no_maps(self, coeffs):
        raise AssertionError("a Hom dimension built a map")

    monkeypatch.setattr(HomFrame, "combination", no_maps)
    assert [(hom_k_dim(x, y, n), hom_d_dim(x, y, n)) for x, y, n in cases] == want
