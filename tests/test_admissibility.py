"""Admissibility is decided from the leading monomials: the path basis and
every product of basis paths match a reference completion truncated at a
fixed length 32, algebras past that length build, and infinite ones are
refused."""

import json
import pathlib
import time

import pytest

from quivhom.algebra import (
    BoundQuiverAlgebra,
    NonAdmissibleError,
    Quiver,
    _order_key,
    dual_numbers,
    linear_algebra_An,
    path_arrows,
    path_source,
)
from quivhom.cli import main
from quivhom.corpus import corpus, gentle_tree_algebra
from quivhom.io import parse_definitions

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"
REFERENCE_CAP = 32


def _reference_complete(alg, cap=REFERENCE_CAP):
    """The completion truncated at a fixed superposition length: overlaps
    longer than cap are skipped."""
    p = alg.p
    gb = []

    def add(e):
        e = alg._reduce(e, gb)
        if not e:
            return None
        lm = max(e, key=_order_key)
        inv = pow(e[lm], p - 2, p)
        e = {k: (v * inv) % p for k, v in e.items()}
        gb.append((lm, e))
        return lm

    for g in alg.relations:
        add(g)
    done = 0
    while done < len(gb):
        i = done
        done += 1
        lm1, g1 = gb[i]
        snapshot = list(gb)
        for lm2, g2 in snapshot:
            for s1, s2, w1, w2 in ((lm1, lm2, g1, g2), (lm2, lm1, g2, g1)):
                a1, a2 = path_arrows(s1), path_arrows(s2)
                # suffix of s1 == prefix of s2
                for k in range(1, min(len(a1), len(a2))):
                    if a1[len(a1) - k :] == a2[:k]:
                        sup = a1 + a2[k:]
                        if len(sup) > cap:
                            continue
                        src = path_source(s1)
                        spoly = {}
                        tail2 = a2[k:]
                        for mono, c in w1.items():
                            w = path_arrows(mono) + tail2
                            spoly[(src, w)] = (spoly.get((src, w), 0) + c) % p
                        head1 = a1[: len(a1) - k]
                        for mono, c in w2.items():
                            w = head1 + path_arrows(mono)
                            key = (src, w)
                            spoly[key] = (spoly.get(key, 0) - c) % p
                        spoly = {k2: v for k2, v in spoly.items() if v}
                        add(spoly)
                # containment: s2 inside s1
                L = len(a2)
                for j in range(len(a1) - L + 1):
                    if a1[j : j + L] == a2 and (len(a1) > L):
                        src = path_source(s1)
                        spoly = {}
                        for mono, c in w1.items():
                            w = path_arrows(mono)
                            key = (src, w)
                            spoly[key] = (spoly.get(key, 0) + c) % p
                        for mono, c in w2.items():
                            w = a1[:j] + path_arrows(mono) + a1[j + L :]
                            key = (src, w)
                            spoly[key] = (spoly.get(key, 0) - c) % p
                        spoly = {k2: v for k2, v in spoly.items() if v}
                        add(spoly)
    return gb


def _reference_irreducible_paths(alg, gb, cap=REFERENCE_CAP):
    """Every path with no leading monomial as a factor, by depth-first
    listing; a path of length cap, or one longer than (cap - 2) / 2, is an
    error."""
    lms = [path_arrows(lm) for lm, _ in gb]
    out = []
    max_seen = 0

    def reducible_tail(word):
        for w in lms:
            L = len(w)
            if L <= len(word) and word[len(word) - L :] == w:
                return True
        return False

    for v in alg.quiver.vertices:
        stack = [(v, ())]
        while stack:
            cur, word = stack.pop()
            out.append((v, word))
            max_seen = max(max_seen, len(word))
            if len(word) >= cap:
                raise NonAdmissibleError(f"irreducible path of length {cap} found")
            for a in alg.quiver.out_arrows[cur]:
                nw = word + (a,)
                if not reducible_tail(nw):
                    stack.append((alg.quiver.target(a), nw))
    if 2 * max_seen + 2 > cap:
        raise NonAdmissibleError(f"need cap >= {2 * max_seen + 2}")
    return tuple(sorted(out, key=_order_key))


def _loops(*names):
    return Quiver(["0"], [(n, "0", "0") for n in names])


def _word(*arrows):
    return ("0", tuple(arrows))


def nil_coxeter(n):
    """The nil-Coxeter algebra of type A_n: u_i^2 = 0, u_i u_j = u_j u_i
    for |i - j| >= 2, and the braid relation; its dimension is (n + 1)!."""
    u = [f"u{i}" for i in range(1, n + 1)]
    rels = [{_word(x, x): 1} for x in u]
    for i in range(n):
        for j in range(i + 2, n):
            rels.append({_word(u[i], u[j]): 1, _word(u[j], u[i]): -1})
    for i in range(n - 1):
        x, y = u[i], u[i + 1]
        rels.append({_word(x, y, x): 1, _word(y, x, y): -1})
    return BoundQuiverAlgebra(_loops(*u), rels)


def commutative_square():
    q = Quiver(["0", "1", "2", "3"], [("a", "0", "1"), ("b", "1", "3"), ("c", "0", "2"), ("d", "2", "3")])
    return BoundQuiverAlgebra(q, [{("0", ("a", "b")): 1, ("0", ("c", "d")): -1}])


def local_commutative():
    """k[x, y]/(x^2, y^2)."""
    rels = [{_word("x", "x"): 1}, {_word("y", "y"): 1}, {_word("x", "y"): 1, _word("y", "x"): -1}]
    return BoundQuiverAlgebra(_loops("x", "y"), rels)


def local_radical_square_zero():
    """k<x, y>/(x, y)^2."""
    return BoundQuiverAlgebra(_loops("x", "y"), [{_word(a, b): 1} for a in "xy" for b in "xy"])


def doubled_chain():
    """Linear A_8 with two arrows x_i, y_i: i -> i+1 and quadratic
    relations.  Its Groebner basis has an element of leading monomial
    y0 x1 x2 x3 x4 x5 y6, which only an ambiguity of length 7 yields, past
    the first bound 2 * 2 + 2 = 6: the second completion finds it."""
    q = Quiver([str(i) for i in range(8)], [(f"{c}{i}", str(i), str(i + 1)) for i in range(7) for c in "xy"])
    rels = [
        {("0", ("y0", "y1")): 1, ("0", ("y0", "x1")): 1},
        {("1", ("x1", "y2")): 1, ("1", ("y1", "x2")): -1},
        {("2", ("y2", "y3")): 1},
        {("3", ("x3", "y4")): 1, ("3", ("y3", "x4")): -1},
        {("4", ("x4", "y5")): 1, ("4", ("y4", "y5")): 1},
        {("5", ("x5", "y6")): 1, ("5", ("y5", "x6")): 1},
    ]
    return BoundQuiverAlgebra(q, rels)


def _algebras():
    out = {}
    for n in range(1, 7):
        A, B = gentle_tree_algebra(n), linear_algebra_An(2 * n + 2)
        for name, alg in (("A", A), ("B", B), ("Lambda", A.dual_numbers_extension()), ("Gamma", B.dual_numbers_extension())):
            out[f"{name}({n})"] = alg
            out[f"{name}({n})^op"] = alg.opposite()
    out["k[eps]"] = dual_numbers()
    for path in sorted(EXAMPLES.glob("*.json")):
        for name, alg in parse_definitions(path.read_text()).algebras.items():
            out[f"{path.stem}:{name}"] = alg
    out["commutative square"] = commutative_square()
    out["k[x,y]/(x^2,y^2)"] = local_commutative()
    out["k<x,y>/(x,y)^2"] = local_radical_square_zero()
    for n in (2, 3, 4):
        out[f"nil-Coxeter A_{n}"] = nil_coxeter(n)
    out["doubled chain"] = doubled_chain()
    return out


ALGEBRAS = _algebras()


def test_the_differential_corpus_has_61_algebras():
    assert len(ALGEBRAS) == 61
    assert [ALGEBRAS[f"nil-Coxeter A_{n}"].dim for n in (2, 3, 4)] == [6, 24, 120]
    assert ALGEBRAS["doubled chain"].dim == 120


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_basis_and_products_match_the_truncated_reference(name):
    alg = ALGEBRAS[name]
    gb = _reference_complete(alg)
    assert alg.path_basis == _reference_irreducible_paths(alg, gb)
    for j in alg.path_basis:
        for i in alg.path_basis:
            if alg.path_target(j) != path_source(i):
                assert alg.mul_basis(i, j) == {}
                continue
            expected = alg._reduce({(path_source(j), path_arrows(j) + path_arrows(i)): 1}, gb)
            assert alg.mul_basis(i, j) == expected, (i, j)


@pytest.mark.parametrize(
    "quiver, relations",
    [
        (_loops("l"), []),
        (_loops("x", "y"), [{_word("y", "x"): 1, _word("x", "y"): -1}]),
    ],
    ids=["free loop", "k[x,y]"],
)
def test_infinite_algebras_are_refused_exactly(quiver, relations):
    with pytest.raises(NonAdmissibleError, match="infinitely many irreducible paths"):
        BoundQuiverAlgebra(quiver, relations)


def test_an_unfinished_completion_is_refused_at_the_budget():
    # the completion of xyx - yxy never ends: its leading monomials are y x^k y x
    t0 = time.perf_counter()
    with pytest.raises(NonAdmissibleError, match="up to length 32"):
        BoundQuiverAlgebra(_loops("x", "y"), [{_word("x", "y", "x"): 1, _word("y", "x", "y"): -1}])
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("m, dim", [(17, 153), (33, 561)])
def test_long_linear_quivers_build(m, dim):
    assert linear_algebra_An(m).dim == dim


@pytest.mark.parametrize("n, gamma_dim, intervals", [(7, 272, 136), (12, 702, 351)])
def test_corpus_builds_past_scale_6(n, gamma_dim, intervals):
    c = corpus(n)
    assert c.Gam.dim == gamma_dim
    assert len(c.M) == intervals


def test_cli_emits_the_scale_7_corpus(tmp_path):
    out = tmp_path / "corpus7.json"
    assert main(["corpus", "--n", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["definitions"]["algebras"]["Gamma"]
