import numpy as np
import pytest

from quivhom.complexes import homology, is_quasi_iso, module_complex, projective_resolution, shift
from quivhom.homological import is_isomorphic
from quivhom.modules import ProjSummands
from quivhom.projcplx import (
    ProjComplex,
    element_unit_inverse,
    identity_proj_chain_map,
    minimize,
    recognize,
)
from tests.conftest import proj_direct_sum, random_module


def contractible_pair(alg, v, lo=0):
    terms = {lo: ProjSummands(alg, [v]), lo + 1: ProjSummands(alg, [v])}
    dmats = {lo: [[alg.e(v)]]}
    return ProjComplex(alg, terms, dmats)


def test_element_unit_inverse(Lam1):
    v = "1"
    u = Lam1.add(Lam1.e(v), Lam1.arrow(f"eps_{v}"))
    inv = element_unit_inverse(Lam1, u)
    assert Lam1.mul(u, inv) == Lam1.e(v)
    assert Lam1.mul(inv, u) == Lam1.e(v)
    with pytest.raises(ValueError):
        element_unit_inverse(Lam1, Lam1.arrow(f"eps_{v}"))


def test_minimize_kills_contractible(A1):
    pc = contractible_pair(A1, "1")
    mn, proj, inc = minimize(pc)
    assert not mn.terms


def test_minimize_mixed_block(A1):
    # P_0 (+) P_1 -> P_1 with a unit in the second slot: the minimal model
    # is P_0 concentrated in degree 0
    terms = {0: ProjSummands(A1, ["0", "1"]), 1: ProjSummands(A1, ["1"])}
    dmats = {0: [[A1.arrow("a1"), A1.e("1")]]}
    pc = ProjComplex(A1, terms, dmats)
    mn, proj, inc = minimize(pc)
    assert sorted(mn.terms) == [0]
    assert mn.terms[0].vertices == ("0",)
    inc_cm = inc.to_chain_map()
    assert is_quasi_iso(inc_cm)
    proj_cm = proj.to_chain_map()
    comp = proj_cm.compose(inc_cm)
    # proj o inc = identity on the minimal model
    for i in mn.terms:
        assert comp.map(i).is_iso()


def test_minimize_keeps_homotopy_type(A1, Lam1):
    rng = np.random.default_rng(21)
    for alg in (A1, Lam1):
        m = random_module(alg, rng)
        if m.is_zero():
            continue
        res, _ = projective_resolution(module_complex(m), -3)
        padded = proj_direct_sum([res, contractible_pair(alg, "1", lo=-1), contractible_pair(alg, "0", lo=0)])
        mn, proj, inc = minimize(padded)
        assert mn.signature() == res.signature()
        inc_cm = inc.to_chain_map()
        assert is_quasi_iso(inc_cm)
        h0 = homology(mn.to_complex(), 0)
        assert is_isomorphic(h0, m)


def test_minimized_differentials_in_radical(A1):
    rng = np.random.default_rng(22)
    m = random_module(A1, rng)
    res, _ = projective_resolution(module_complex(m), -3)
    for i, d in res.dmats.items():
        src = res.terms[i].vertices
        tgt = res.terms[i + 1].vertices
        for k in range(len(tgt)):
            for j in range(len(src)):
                if src[j] == tgt[k]:
                    assert d[k][j].get((src[j], ()), 0) == 0


def test_proj_chain_map_identity(A1):
    pc = contractible_pair(A1, "3")
    ident = identity_proj_chain_map(pc)
    cm = ident.to_chain_map()
    for i in pc.terms:
        assert cm.map(i).is_iso()


def test_shift_proj_complex(A1):
    pc = contractible_pair(A1, "1")
    sh = recognize(shift(pc.to_complex(), 2))
    assert sorted(sh.terms) == [-2, -1]
    assert sh.to_complex().term(-2).total_dim() == 3


def test_recognize_projective_complex(A1):
    from quivhom.complexes import Complex
    from quivhom.modules import direct_sum, element_matrix_to_hom, projective

    f = element_matrix_to_hom(
        A1, [[A1.arrow("a1")]], ProjSummands(A1, ["0"]), ProjSummands(A1, ["1"])
    )
    c = Complex(A1, {0: f.source, 1: f.target}, {0: f})
    pc = recognize(c)
    assert pc.terms[0].vertices == ("0",)
    assert pc.terms[1].vertices == ("1",)
    assert pc.to_complex().total_dim() == c.total_dim()


def test_recognize_rejects_non_projective(A1):
    from quivhom.complexes import module_complex
    from quivhom.modules import simple

    with pytest.raises(ValueError):
        recognize(module_complex(simple(A1, "1")))
