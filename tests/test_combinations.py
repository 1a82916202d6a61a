"""Maps built from coordinates in one place.

`HomFrame.combination` and `HomEngine.map_of` replace the loops of
`scale` and `+` over basis maps that each randomized search used to
write for itself, and `find_iso` replaces the two isomorphism searches.
The old loops and searches are kept here as references: with the same
seeds, every search must see the same maps and reach the same answers.

`decompose` and the complex splitter once split along a factor of the
minimal polynomial (Cantor-Zassenhaus on dense coefficient lists); that
loop and its polynomial helpers are kept here too.  They now split along
an idempotent of F_p[f] instead, which draws a different random stream
and so splits in a different order: they must reach the same pieces up
to isomorphism, not the same list.
"""

import itertools

import numpy as np
import pytest

from quivhom.complexes import Complex, HomEngine, module_complex, projective_resolution
from quivhom.corpus import corpus
from quivhom.exactlin import MAX_PRIME, Matrix, inverse, nullspace, solve
from quivhom.homological import DecompositionError, find_iso, is_isomorphic, syzygy
from quivhom.modules import RepHom, Representation, direct_sum, hom_frame, hom_space, identity_hom, image, kernel, zero_hom
from quivhom.projcplx import minimize, recognize
from tests.conftest import local_end, proj_direct_sum, random_module, split_proj_complex
from tests.test_krull_schmidt import decompose_checked

# -- the old loops ---------------------------------------------------------


def scale_and_add(basis, coeffs, zero):
    """sum_k coeffs[k] * basis[k], one `scale` and one `+` per basis map."""
    acc = zero
    for c, b in zip(coeffs, basis):
        acc = acc + b.scale(int(c))
    return acc


def old_map_of(eng, m, vec):
    comps = {}
    for i, off, size in eng.layout(m):
        basis = hom_space(eng.c.term(i), eng.d.term(i + m))
        acc = None
        for k in range(size):
            cterm = basis[k].scale(int(vec[off + k]))
            acc = cterm if acc is None else acc + cterm
        if acc is not None:
            comps[i] = acc
    return comps


def old_is_isomorphic(m, n, seed=0, budget=60):
    """Random combinations, then the basis maps, then their pairwise sums."""
    if m.algebra is not n.algebra:
        raise ValueError("different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim() == 0:
        return True
    basis = hom_space(m, n)
    if not basis:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        if scale_and_add(basis, rng.integers(0, m.p, size=len(basis)), zero_hom(m, n)).is_iso():
            return True
    if any(b.is_iso() for b in basis):
        return True
    return any((basis[i] + basis[j]).is_iso() for i, j in itertools.combinations(range(len(basis)), 2))


# -- the old polynomial split -----------------------------------------------


def old_poly_mod(p, a, m):
    """a mod m for dense coefficient lists (lowest degree first) over F_p."""
    a = [c % p for c in a]
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        c = (a[-1] * inv) % p
        shift = len(a) - 1 - dm
        for i, cm in enumerate(m):
            a[shift + i] = (a[shift + i] - c * cm) % p
        while a and a[-1] == 0:
            a.pop()
    return a if a else [0]


def old_poly_gcd(p, a, b):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while any(b):
        a, b = b, old_poly_mod(p, a, b)
    if not any(a):
        return [0]
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def old_poly_mulmod(p, a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return old_poly_mod(p, out, m)


def old_poly_exact_div(p, a, b):
    a = [c % p for c in a]
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], p - 2, p)
    for k in range(len(out) - 1, -1, -1):
        c = (a[len(b) - 1 + k] * inv) % p
        out[k] = c
        for i, cb in enumerate(b):
            a[k + i] = (a[k + i] - c * cb) % p
    return out


def old_local_min_poly(p, F, v):
    """Monic annihilator of v under F of least degree (lowest-first coeffs)."""
    cols = [v % p]
    while True:
        w = (F @ cols[-1]) % p
        x = solve(Matrix(p, np.stack(cols, axis=1)), Matrix(p, w.reshape(-1, 1)))
        if x is not None:
            return [(-int(c)) % p for c in x.data[:, 0]] + [1]
        cols.append(w)


def old_min_poly(p, F, rng):
    """Minimal polynomial of F, probabilistically: the lcm of a few local
    annihilators."""
    n = F.shape[0]
    if n == 0:
        return [0, 1]
    mp = [1]
    for _ in range(3):
        cand = old_local_min_poly(p, F, rng.integers(0, p, size=n))
        g = old_poly_gcd(p, mp, cand)
        prod = [0] * (len(mp) + len(cand) - 1)
        for i, ca in enumerate(mp):
            for j, cb in enumerate(cand):
                prod[i + j] = (prod[i + j] + ca * cb) % p
        mp = old_poly_exact_div(p, prod, g)
        if len(mp) - 1 == n:
            break
    return mp


def old_splitting_factor(p, mp, rng):
    """A nontrivial monic factor of the squarefree part of mp by
    Cantor-Zassenhaus probes, or None when mp looks primary."""
    if len(mp) - 1 < 2:
        return None
    deriv = [(i * mp[i]) % p for i in range(1, len(mp))]
    sf = mp
    if any(deriv):
        g = old_poly_gcd(p, mp, deriv)
        if len(g) - 1 > 0:
            sf = old_poly_exact_div(p, mp, g)
    dw = len(sf) - 1
    if dw < 2:
        return None
    for _ in range(12):
        h = [int(rng.integers(0, p)) for _ in range(dw)]
        if not any(h):
            continue
        acc, base, e = [1], h, (p - 1) // 2
        while e:
            if e & 1:
                acc = old_poly_mulmod(p, acc, base, sf)
            base = old_poly_mulmod(p, base, base, sf)
            e >>= 1
        acc = list(acc)
        acc[0] = (acc[0] - 1) % p
        g = old_poly_gcd(p, sf, acc)
        if 0 < len(g) - 1 < dw:
            return g
    return None


def old_apply_poly(f, poly):
    p = f.source.p
    out = None
    power = identity_hom(f.source)
    for c in poly:
        if c % p:
            term = power.scale(c)
            out = term if out is None else out + term
        power = f.compose(power)
    return identity_hom(f.source).scale(0) if out is None else out


def old_total_matrix(f):
    blocks = [f.mats[v].data for v in f.source.algebra.quiver.vertices if f.mats[v].rows]
    n = f.source.total_dim()
    out = np.zeros((n, n), dtype=np.int64)
    off = 0
    for b in blocks:
        out[off : off + b.shape[0], off : off + b.shape[0]] = b
        off += b.shape[0]
    return out


def old_fitting_split(m, g):
    n = m.total_dim()
    power = g
    for _ in range(max(1, n.bit_length())):
        power = power.compose(power)
    k, _ = kernel(power)
    if k.total_dim() == 0 or k.total_dim() == n:
        return None
    i, _ = image(power)
    if k.total_dim() + i.total_dim() != n:
        return None
    return k, i


def old_decompose(m, seed=0, budget=60):
    rng = np.random.default_rng(seed)
    pieces, stack = [], [m]
    while stack:
        cur = stack.pop()
        if cur.total_dim() == 0:
            continue
        basis = hom_space(cur, cur)
        if local_end(cur):
            pieces.append(cur)
            continue
        split = None
        for _ in range(budget):
            f = scale_and_add(basis, rng.integers(0, cur.p, size=len(basis)), zero_hom(cur, cur))
            fac = old_splitting_factor(cur.p, old_min_poly(cur.p, old_total_matrix(f), rng), rng)
            if fac is None:
                continue
            split = old_fitting_split(cur, old_apply_poly(f, fac))
            if split is not None:
                break
        if split is None:
            raise DecompositionError("could not certify a split within budget")
        stack.extend(split)
    grouped = []
    for piece in sorted(pieces, key=lambda r: r.total_dim()):
        for idx, (rep, mult) in enumerate(grouped):
            if rep.total_dim() == piece.total_dim() and old_is_isomorphic(rep, piece, seed=seed):
                grouped[idx] = (rep, mult + 1)
                break
        else:
            grouped.append((piece, 1))
    return grouped


def old_split_proj_complex(pc, seed=0, budget=40):
    rng = np.random.default_rng(seed)
    out, stack = [], [pc]
    while stack:
        cur = stack.pop()
        if not cur.terms:
            continue
        c = cur.to_complex()
        eng = HomEngine(c, c)
        cycles = nullspace(eng.boundary(0))
        endos = [eng.map_of(0, cycles.data[:, k]) for k in range(cycles.cols)]
        if len(endos) <= 1:
            out.append(cur)
            continue
        split = None
        for _ in range(budget):
            coeffs = rng.integers(0, c.algebra.p, size=len(endos))
            fm = {i: None for i in c.terms}
            for co, b in zip(coeffs, endos):
                for i in c.terms:
                    term = b.map(i).scale(int(co))
                    fm[i] = term if fm[i] is None else fm[i] + term
            blocks = [fm[i].mats[v].data for i in sorted(c.terms) for v in c.algebra.quiver.vertices if fm[i].mats[v].rows]
            n = sum(b.shape[0] for b in blocks)
            F = np.zeros((n, n), dtype=np.int64)
            off = 0
            for b in blocks:
                F[off : off + b.shape[0], off : off + b.shape[0]] = b
                off += b.shape[0]
            fac = old_splitting_factor(c.algebra.p, old_min_poly(c.algebra.p, F, rng), rng)
            if fac is None:
                continue
            split = old_complex_fitting(c, fm, fac)
            if split is not None:
                break
        if split is None:
            out.append(cur)
            continue
        stack.extend(split)
    return out


def old_complex_fitting(c, fm, poly):
    alg = c.algebra
    p = alg.p
    g = {}
    for i in c.terms:
        acc = None
        power = identity_hom(c.terms[i])
        for co in poly:
            if co % p:
                term = power.scale(co)
                acc = term if acc is None else acc + term
            power = fm[i].compose(power)
        g[i] = acc if acc is not None else identity_hom(c.terms[i]).scale(0)
    n = c.total_dim()
    for _ in range(max(1, n.bit_length())):
        g = {i: g[i].compose(g[i]) for i in g}
    pieces = []
    dim = 0
    for which in (kernel, image):
        carriers = {}
        for i in c.terms:
            sub, incl = which(g[i])
            if sub.total_dim():
                carriers[i] = (sub, incl)
        if not carriers:
            return None
        dim += sum(sub.total_dim() for sub, _ in carriers.values())
        diffs = {}
        for i, (sub, incl) in carriers.items():
            if i + 1 not in carriers:
                continue
            subt, inclt = carriers[i + 1]
            mats = {}
            for v in alg.quiver.vertices:
                x = solve(inclt.mats[v], c.diff(i).mats[v] @ incl.mats[v])
                if x is None:
                    return None
                mats[v] = x
            diffs[i] = RepHom(sub, subt, mats, check=False)
        try:
            pieces.append(recognize(Complex(alg, {i: sub for i, (sub, _) in carriers.items()}, diffs, check=False)))
        except ValueError:
            return None
    if dim != n:
        return None
    return [minimize(x)[0] for x in pieces]


# -- inputs ------------------------------------------------------------------


def corpus_modules(n, p=101):
    """The named corpus modules, grouped by algebra."""
    c = corpus(n, p)
    groups: dict[int, list[Representation]] = {}
    for m in list(c.M.values()) + list(c.S_Q.values()) + list(c.S_P.values()):
        group = groups.setdefault(id(m.algebra), [])
        if all(m is not x for x in group):
            group.append(m)
    return list(groups.values())


def base_change(m: Representation, rng) -> Representation:
    """m transported along random invertible matrices at every vertex."""
    p = m.p
    g = {}
    for v, d in m.dims.items():
        while True:
            cand = Matrix.random(p, d, d, rng)
            inv = inverse(cand)
            if inv is not None:
                g[v] = (cand, inv)
                break
    mats = {a: g[t][0] @ m.mats[a] @ g[s][1] for a, s, t in m.algebra.quiver.arrows}
    return Representation(m.algebra, m.dims, mats)


def semisimple(m: Representation) -> Representation:
    """The semisimple module with the dimension vector of m."""
    return Representation(m.algebra, m.dims, {})


def random_pool(name, request, seed):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(4):
        m = random_module(alg, rng)
        pool += [m, base_change(m, rng), semisimple(m), syzygy(m, 1), syzygy(m, 2)]
    return pool


# -- combinations --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, MAX_PRIME])
def test_combination_is_the_scale_and_add_loop(n, p):
    rng = np.random.default_rng(n)
    empty = 0
    for group in corpus_modules(n, p):
        for a, b in itertools.product(group, repeat=2):
            frame = hom_frame(a, b)
            basis = hom_space(a, b)
            empty += not basis
            for coeffs in (np.zeros(len(basis), dtype=np.int64), rng.integers(0, p, size=len(basis))):
                got = frame.combination(coeffs)
                assert (got.source, got.target) == (a, b)
                assert got.mats == scale_and_add(basis, coeffs, zero_hom(a, b)).mats
    assert empty, "the corpus has pairs with no maps"


def test_combination_reduces_its_coefficients(A1):
    m = random_module(A1, np.random.default_rng(2))
    frame = hom_frame(m, m)
    basis = hom_space(m, m)
    coeffs = np.arange(len(basis)) - 7 * A1.p
    assert frame.combination(coeffs).mats == scale_and_add(basis, coeffs, zero_hom(m, m)).mats


@pytest.mark.parametrize("n", [1, 2])
def test_map_of_is_the_accumulation_loop(n):
    rng = np.random.default_rng(10 + n)
    for group in corpus_modules(n):
        for x, y in itertools.islice(itertools.product(group, repeat=2), 0, None, 7):
            stalk_x, stalk_y = module_complex(x), module_complex(y)
            res_x = projective_resolution(stalk_x, -3)[0].to_complex()
            for c, d in ((stalk_x, stalk_y), (res_x, stalk_y), (res_x, res_x)):
                eng = HomEngine(c, d)
                for m in range(d.lo - c.hi - 1, d.hi - c.lo + 2):
                    vec = rng.integers(0, c.algebra.p, size=eng.space_dim(m))
                    got = eng.map_of(m, vec).maps
                    want = old_map_of(eng, m, vec)
                    assert sorted(got) == sorted(want)
                    assert all(got[i].mats == want[i].mats for i in want)


# -- one isomorphism search -------------------------------------------------------


def assert_same_verdict(a, b, seed):
    verdict = is_isomorphic(a, b, seed=seed)
    assert verdict == old_is_isomorphic(a, b, seed=seed)
    iso = find_iso(a, b, np.random.default_rng(seed))
    assert (iso is not None) == verdict
    if iso is not None:
        assert (iso.source, iso.target) == (a, b)
        assert iso.verify() and iso.is_iso()
    return verdict


@pytest.mark.parametrize("n", [1, 2])
def test_is_isomorphic_on_corpus_pairs_is_the_old_search(n):
    yes = no = 0
    for group in corpus_modules(n):
        group = group + [semisimple(m) for m in group]
        for a, b in itertools.product(group, repeat=2):
            if a.dims == b.dims:
                if assert_same_verdict(a, b, seed=n):
                    yes += 1
                else:
                    no += 1
    assert yes and no


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps", "Gam1"])
def test_is_isomorphic_on_random_modules_and_syzygies_is_the_old_search(name, request):
    pool = random_pool(name, request, seed=len(name))
    verdicts = set()
    for a, b in itertools.product(pool, repeat=2):
        if a.dims == b.dims:
            verdicts.add(assert_same_verdict(a, b, seed=3))
    assert verdicts == {True, False}


def test_find_iso_edge_cases(A1, keps):
    rng = np.random.default_rng(0)
    m = random_module(A1, rng)
    zero = Representation(A1, {}, {})
    assert find_iso(zero, zero, rng).is_zero()
    assert find_iso(m, zero, rng) is None
    with pytest.raises(ValueError):
        find_iso(m, random_module(keps, rng), rng)


# -- decompose and the complex splitting -----------------------------------------


def corpus_sums(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for group in corpus_modules(n):
        for size in (2, 3):
            picks = [group[int(k)] for k in rng.integers(0, len(group), size=size)]
            out.append(direct_sum(picks)[0])
        out.append(direct_sum([group[0], group[0], group[-1]])[0])
    return out


def outcome(fn):
    try:
        return fn()
    except DecompositionError:
        return "DecompositionError"


def dims_and_multiplicities(pieces):
    return [(list(r.dims.values()), k) for r, k in pieces]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_is_the_old_loop(n, seed, monkeypatch):
    split = 0
    for m in corpus_sums(n, seed=10 * n + seed):
        got = outcome(lambda: decompose_checked(m, seed, monkeypatch))
        want = outcome(lambda: old_decompose(m, seed=seed))
        if "DecompositionError" in (got, want):
            assert got == want
            continue
        assert sorted(dims_and_multiplicities(got)) == sorted(dims_and_multiplicities(want))
        for rep, k in got:
            assert any(k == mult and find_iso(rep, old, seed) is not None for old, mult in want)
        split += len(got) > 1
    assert split


def signatures(pieces):
    return sorted(x.signature() for x in pieces)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_split_proj_complex_is_the_old_loop(n, seed):
    summands = corpus(n).tilting.summands
    candidates = list(summands) + [proj_direct_sum(summands), proj_direct_sum(summands[:2] + summands[:2])]
    pieces = 0
    for pc in candidates:
        got = split_proj_complex(pc, seed=seed)
        assert signatures(got) == signatures(old_split_proj_complex(pc, seed=seed))
        pieces = max(pieces, len(got))
    assert pieces > 1
