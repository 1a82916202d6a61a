"""Splitting by an idempotent of F_p[f], and the local-End certificate.

`decompose` splits a module along an idempotent of the algebra F_p[f]
generated by a random endomorphism f, read off the Berlekamp subalgebra
of F_p[f] with no polynomial formed.  Sums of Kronecker band modules
R_pi, pi an irreducible quadratic, have End/rad with factors F_(p^2):
their eigenvalues lie outside F_p, so a split by f^((p-1)/2) - 1 alone
does not separate them.  The quotient arithmetic of `_is_local`, on a
module's stalk complex, is checked against the loop version it replaced.
"""

import itertools

import numpy as np
import pytest

from quivhom import homological
from quivhom.algebra import BoundQuiverAlgebra, Quiver, linear_algebra_An
from quivhom.corpus import interval_module
from quivhom.exactlin import Matrix, extending_columns, inverse, nullspace
from quivhom.homological import (
    DecompositionError,
    _end_radical,
    _split_idempotent,
    decompose,
    find_iso,
)
from quivhom.modules import RepHom, Representation, direct_sum, flatten_blocks, hom_frame, identity_hom, simple
from tests.conftest import local_end, random_module
from tests.test_combinations import corpus_modules, corpus_sums
from tests.test_krull_schmidt import decompose_checked

# -- inputs --------------------------------------------------------------------


def kronecker(p):
    return BoundQuiverAlgebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], p=p)


def irreducible_quadratics(p, count):
    """The first monic x^2 + s x + t with no root in F_p, as (s, t)."""
    out = []
    for s, t in itertools.product(range(p), repeat=2):
        if all((x * x + s * x + t) % p for x in range(p)):
            out.append((s, t))
            if len(out) == count:
                return out
    raise ValueError("too few irreducible quadratics")


def band(alg, quad):
    """R_pi: a = 1 and b = the companion matrix of pi, on F_p^2 -> F_p^2."""
    s, t = quad
    mats = {"a": Matrix.identity(alg.p, 2), "b": Matrix(alg.p, [[0, -t], [1, -s]])}
    return Representation(alg, {"1": 2, "2": 2}, mats)


def kronecker_sums(p):
    """(sum, its expected pieces with multiplicities) for the five band sums."""
    alg = kronecker(p)
    r, r1, r2 = (band(alg, q) for q in irreducible_quadratics(p, 3))
    s1 = Representation(alg, {"1": 1}, {})
    cases = [
        ([r, r1], [(r, 1), (r1, 1)]),
        ([r, r], [(r, 2)]),
        ([r, s1], [(s1, 1), (r, 1)]),
        ([r, r1, r2], [(r, 1), (r1, 1), (r2, 1)]),
        ([r, r, r1], [(r, 2), (r1, 1)]),
    ]
    return [(direct_sum(parts)[0], expected) for parts, expected in cases]


def dims_and_multiplicities(pieces):
    return [(list(r.dims.values()), k) for r, k in pieces]


def assert_pieces(got, expected, seed):
    keys = dims_and_multiplicities(got)
    assert keys == sorted(keys, key=lambda e: (sum(e[0]), e[0]))
    assert sorted(keys) == sorted(dims_and_multiplicities(expected))
    for rep, k in expected:
        assert any(k == mult and find_iso(rep, piece, seed) is not None for piece, mult in got)


# -- decompose -----------------------------------------------------------------------


@pytest.mark.parametrize("p", [11, 101])
@pytest.mark.parametrize("seed", range(5))
def test_kronecker_band_sums_split_into_their_bands(p, seed, monkeypatch):
    for m, expected in kronecker_sums(p):
        assert_pieces(decompose_checked(m, seed, monkeypatch), expected, seed)


def test_a6_interval_sum_splits_at_p_127(monkeypatch):
    # dim End = 126 < 127: the trace-form radical applies, and the split
    # reads no polynomial of degree up to 56
    alg = linear_algebra_An(6, 127)
    intervals = [interval_module(alg, i, l) for i in range(6) for l in range(1, 7 - i)]
    pieces = decompose_checked(direct_sum(intervals)[0], 0, monkeypatch)
    assert_pieces(pieces, [(iv, 1) for iv in intervals], seed=0)
    assert len(pieces) == 21


class CountingRng:
    """A numpy Generator that counts its `integers` draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self.rng.integers(*args, **kwargs)


def test_split_idempotent_makes_one_draw():
    """f = diag(1, 2) on S_0 (+) S_1 over A_2 generates F_p x F_p, so a
    draw gives e = 0 or 1 (trivial) or a projection, each with probability
    1/2.  Either way `_split_idempotent` makes exactly one draw, so the
    DRAWS loop of `split_complex` is the one draw budget."""
    alg = linear_algebra_An(2, 11)
    m = direct_sum([simple(alg, v) for v in alg.quiver.vertices])[0]
    f = RepHom(m, m, {v: Matrix(alg.p, [[k + 1]]) for k, v in enumerate(alg.quiver.vertices)})
    split = set()
    for seed in range(20):
        rng = CountingRng(seed)
        e = _split_idempotent([f], rng)
        assert rng.draws == 1
        split.add(e is not None)
    assert split == {True, False}


def test_decomposition_error_names_its_budget_and_piece(monkeypatch):
    alg = kronecker(11)
    r = band(alg, irreducible_quadratics(11, 1)[0])
    monkeypatch.setattr(homological, "DRAWS", 0)
    with pytest.raises(DecompositionError, match=r"within budget = 0 random endomorphisms of the piece with dimension vector \[4, 4\] in degree 0"):
        decompose(direct_sum([r, r])[0])


# -- the local-End certificate ----------------------------------------------------------


def old_end_structure(frame):
    """Structure constants of End(m) in the basis of frame (Hom(m, m)),
    all n^2 composites read off the frame at once."""
    n = frame.dim
    comp = {v: (b[:, None] @ b[None, :]).reshape(n * n, *b.shape[1:]) for v, b in frame.blocks().items()}
    coords = frame.coordinates(flatten_blocks(frame.source.algebra, comp))
    return coords.T.reshape(n, n, n)


def old_is_local_end(m):
    """The loop version: E/rad multiplied one product of basis vectors at
    a time, commutativity checked pair by pair, Frobenius per basis vector."""
    frame = hom_frame(m, m)
    n = frame.flats.shape[1]
    if n == 1:
        return True
    p = m.p
    sc = old_end_structure(frame)
    radbasis = _end_radical(p, sc)
    r = radbasis.cols
    if n - r == 1:
        return True
    _, comp = extending_columns(radbasis, Matrix.identity(p, n))
    full = Matrix.hstack([radbasis, Matrix(p, np.eye(n, dtype=np.int64)[:, comp])])
    to_comp = inverse(full).data[r:]
    q = len(comp)

    def qmul(a, b):
        out = np.zeros(n, dtype=np.int64)
        for i in range(q):
            for j in range(q):
                if a[i] and b[j]:
                    out = (out + (a[i] * b[j] % p) * sc[comp[i], comp[j]]) % p
        return to_comp @ out % p

    unit = np.eye(q, dtype=np.int64)
    for i, j in itertools.combinations(range(q), 2):
        if not np.array_equal(qmul(unit[i], unit[j]), qmul(unit[j], unit[i])):
            return False
    one = to_comp @ frame.coordinates(identity_hom(m).flat()[:, None])[:, 0] % p
    frob_cols = []
    for i in range(q):
        res, base, e = one, unit[i], p
        while e:
            if e & 1:
                res = qmul(res, base)
            base = qmul(base, base)
            e >>= 1
        frob_cols.append((res - unit[i]) % p)
    return nullspace(Matrix(p, np.stack(frob_cols, axis=1))).cols == 1


def verdict(fn, m):
    try:
        return fn(m)
    except DecompositionError:
        return "DecompositionError"


def assert_same_verdicts(mods):
    verdicts = set()
    for m in mods:
        got = verdict(local_end, m)
        assert got == verdict(old_is_local_end, m)
        verdicts.add(got)
    return verdicts


@pytest.mark.parametrize("n", [1, 2])
def test_is_local_end_is_the_loop_version_on_corpus_sums(n):
    mods = [m for group in corpus_modules(n) for m in group]
    mods += [m for seed in range(3) for m in corpus_sums(n, seed=10 * n + seed)]
    assert {True, False} <= assert_same_verdicts(mods)


@pytest.mark.parametrize("p", [11, 101])
def test_is_local_end_is_the_loop_version_on_kronecker_sums(p):
    mods = [m for m, _ in kronecker_sums(p)] + [rep for _, expected in kronecker_sums(p) for rep, _ in expected]
    assert assert_same_verdicts(mods) == {True, False}


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps", "Gam1"])
def test_is_local_end_is_the_loop_version_on_random_modules(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(len(name))
    mods = [random_module(alg, rng, summands=k) for k in (1, 2, 3) for _ in range(4)]
    assert True in assert_same_verdicts([m for m in mods if not m.is_zero()])
