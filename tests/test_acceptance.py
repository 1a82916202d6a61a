"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (finite-field arithmetic); the two scaled
reproductions also enforce their stated wall-clock budgets.
"""

import time

import numpy as np

from quivhom.algebra import dual_numbers
from quivhom.complexes import Complex, direct_sum_complex, localization_compare, module_complex, hom_d_dim
from quivhom.corpus import corpus
from quivhom.functors import (
    check_tilting,
    compose,
    conjugation_comparison,
    endomorphism_presentation,
    perturb_functor_data,
)
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.homological import decompose, ext, projdim, syzygy
from quivhom.modules import (
    ProjSummands,
    cokernel,
    hom_space,
    is_projective,
    zero_hom,
)
from quivhom.projcplx import ProjComplex
from quivhom.stable import (
    _pipeline,
    exact_sequence_image,
    omega_functor,
    stable_hom,
    stable_image,
    stable_image_map,
    stable_iso,
)
from tests.conftest import random_module


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _scaled_reproduction(n, time_budget):
    t0 = time.time()
    c = corpus(n)
    pairs = sorted(c.M)
    expected = (2 * n + 2) * (2 * n + 3) // 2
    ok = len(pairs) == expected
    detail = [
        f"{len(pairs)} interval modules",
        f"Ringel-Zhang count (2n+2)(2n+3)/2 = {expected} indecomposable non-projective GP Gamma-modules",
    ]
    for key in pairs:
        m = c.M[key]
        pieces = decompose(m)
        if not (len(pieces) == 1 and pieces[0][1] == 1):
            ok = False
            detail.append(f"M{key} decomposes")
        if is_projective(m):
            ok = False
            detail.append(f"M{key} projective")
        if not is_gorenstein_projective(m, 8).is_gp:
            ok = False
            detail.append(f"M{key} not GP")
    images = {}
    for key in pairs:
        img, _ = stable_image(c.F, c.M[key])
        images[key] = img
        if not is_gorenstein_projective(img, 8).is_gp:
            ok = False
            detail.append(f"N{key} not GP over the tensor tree algebra")
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if stable_iso(images[pairs[a]], images[pairs[b]]):
                ok = False
                detail.append(f"images {pairs[a]} and {pairs[b]} stably isomorphic")
    for i in range(n + 1):
        v = 2 * i + 1
        key = (v, 2 * n + 2 - v)
        if not stable_iso(images[key], c.S_P[v]):
            ok = False
            detail.append(f"N{key} does not match the eps-trivial projective")
    for i in range(n + 1):
        v = 2 * i
        key = (v, 2 * n + 2 - v)
        if not stable_iso(images[key], c.pullback_module(i)):
            ok = False
            detail.append(f"N{key} does not match the pullback module")
    elapsed = time.time() - t0
    if elapsed > time_budget:
        ok = False
        detail.append(f"exceeded {time_budget}s budget")
    detail.append(f"{elapsed:.1f}s")
    return ok, "; ".join(detail)


def test_criterion_1_reproduction_n1():
    ok, detail = _scaled_reproduction(1, 60)
    report(1, ok, f"scale-1 classification: {detail}")


def test_criterion_2_reproduction_n2():
    ok, detail = _scaled_reproduction(2, 300)
    report(2, ok, f"scale-2 classification: {detail}")


def _perp_pair(alg, rng):
    """x: 2-term complex with projective top (hypothesis holds
    structurally), y: random 2-term complex in degrees [0, 1]."""
    m = random_module(alg, rng)
    verts = list(alg.quiver.vertices)
    ps = ProjSummands(alg, [verts[rng.integers(0, len(verts))] for _ in range(2)])
    P = ps.rep()
    basis = hom_space(m, P)
    d = zero_hom(m, P)
    for b in basis:
        d = d + b.scale(int(rng.integers(0, alg.p)))
    x = Complex(alg, {0: m, 1: P}, {0: d})
    from tests.conftest import random_two_term_complex

    y = random_two_term_complex(alg, rng)
    return x, y


def test_criterion_3_localization_suite():
    keps = dual_numbers()
    A = corpus(1).A
    failures = []
    surjective_at_1 = 0
    total = 0
    for alg, count, seed in ((A, 50, 101), (keps, 50, 202)):
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            x, y = _perp_pair(alg, rng)
            if x.is_zero() or y.is_zero():
                continue
            done += 1
            total += 1
            for nshift in range(-3, 1):
                rep = localization_compare(x, y, nshift)
                if not rep.hypothesis_ok:
                    failures.append((done, nshift, "hypothesis"))
                if not rep.isomorphism():
                    failures.append((done, nshift, "not iso"))
            rep = localization_compare(x, y, 1)
            if not rep.injective():
                failures.append((done, 1, "not injective"))
            if rep.surjective_at_n:
                surjective_at_1 += 1
    ok = not failures
    report(
        3,
        ok,
        f"{total} pairs, failures: {failures[:5]}; "
        f"shift-1 surjectivity observed {surjective_at_1}/{total} (recorded, not asserted)",
    )


def test_criterion_4_uniqueness():
    c = corpus(1)
    lam = c.Lam
    ok = True
    notes = []
    # strategy two: pad the canonical minimal complex with a split pair
    pad = ProjComplex(
        lam,
        {0: ProjSummands(lam, ["1"]), 1: ProjSummands(lam, ["1"])},
        {0: [[lam.e("1")]]},
    )
    for key, x in sorted(c.M.items()):
        pl = _pipeline(c.F, x)
        padded = direct_sum_complex([pl.cmin.to_complex(), pad.to_complex()])
        M2, _ = cokernel(padded.diff(-1))
        if not stable_iso(M2, pl.M):
            ok = False
            notes.append(f"padded strategy differs at {key}")
    # isomorphic data: conjugated arrow maps
    f2, psis = perturb_functor_data(c.F, seed=11)
    etas = {}
    from quivhom.exactlin import solve
    from quivhom.modules import RepHom

    def eta_for(x):
        xi = conjugation_comparison(c.F, f2, psis, x)
        p1 = _pipeline(c.F, x)
        p2 = _pipeline(f2, x)
        comp = p1.mproj.compose(xi).compose(p2.minc)
        cm = comp.to_chain_map()
        mats = {}
        for v in lam.quiver.vertices:
            rhs = p1.pi0.mats[v] @ cm.map(0).mats[v]
            sol = solve(p2.pi0.mats[v].transpose(), rhs.transpose())
            assert sol is not None
            mats[v] = sol.transpose()
        return RepHom(p2.M, p1.M, mats, check=False)

    for key, x in sorted(c.M.items()):
        M1, _ = stable_image(c.F, x)
        M2, _ = stable_image(f2, x)
        if not stable_iso(M1, M2):
            ok = False
            notes.append(f"perturbed data differs at {key}")
        etas[key] = eta_for(x)
    # naturality over a generating set of 20 corpus morphisms
    rng = np.random.default_rng(12)
    keys = sorted(c.M)
    checked = 0
    while checked < 20:
        kx = keys[rng.integers(0, len(keys))]
        ky = keys[rng.integers(0, len(keys))]
        x, y = c.M[kx], c.M[ky]
        basis = hom_space(x, y)
        if not basis:
            continue
        phi = zero_hom(x, y)
        for b in basis:
            phi = phi + b.scale(int(rng.integers(0, c.p)))
        if phi.is_zero():
            continue
        checked += 1
        b1 = stable_image_map(c.F, phi)
        b2 = stable_image_map(f2, phi)
        lhs = b1.rep.compose(etas[kx])
        rhs = etas[ky].compose(b2.rep)
        space = stable_hom(lhs.source, lhs.target)
        if not space.equal(lhs, rhs):
            ok = False
            notes.append(f"naturality square fails for {kx}->{ky}")
    report(4, ok, f"two strategies + perturbed data on 10 modules, 20 squares; {notes[:3]}")


def test_criterion_5_composition_and_syzygy():
    c = corpus(1)
    ok = True
    notes = []
    f_then_omega = compose(c.F, omega_functor(c.Lam, 1))
    fg = compose(c.F, c.G)
    for key, x in sorted(c.M.items()):
        left, _ = stable_image(f_then_omega, x)
        right = syzygy(stable_image(c.F, x)[0], 1)
        if not stable_iso(left, right):
            ok = False
            notes.append(f"omega composite fails at {key}")
        round_trip, _ = stable_image(fg, x)
        if not stable_iso(round_trip, syzygy(x, c.F.width)):
            ok = False
            notes.append(f"inverse composite fails at {key}")
    report(5, ok, f"composition identities on all corpus modules; {notes[:3]}")


def test_criterion_6_exactness():
    c = corpus(1)
    ok = True
    notes = []
    for key, (incl, proj) in sorted(c.ses.items()):
        res = exact_sequence_image(c.F, incl, proj)
        if not res.verify_exact():
            ok = False
            notes.append(f"{key} not exact")
        if not (is_projective(res.P) and is_projective(res.Q)):
            ok = False
            notes.append(f"{key} padding not projective")
        a_exp = stable_image_map(c.F, incl)
        u_exp = stable_image_map(c.F, proj)
        if not a_exp.space.equal(res.a_hom, a_exp.rep):
            ok = False
            notes.append(f"{key} left edge class differs")
        if not u_exp.space.equal(res.u_hom, u_exp.rep):
            ok = False
            notes.append(f"{key} right edge class differs")
    report(6, ok, f"{len(c.ses)} transported sequences; {notes[:3]}")


def test_criterion_7_tilting():
    c = corpus(1)
    rep = check_tilting(c.tilting, search_depth=4)
    ok = rep.self_orthogonal and rep.generates == "yes"
    pres = endomorphism_presentation(c.tilting)
    m = 2 * c.n + 2
    line = len(pres.quiver.vertices) == m and len(pres.quiver.arrows) == m - 1
    outdeg = {v: 0 for v in pres.quiver.vertices}
    indeg = {v: 0 for v in pres.quiver.vertices}
    for _, s, t in pres.quiver.arrows:
        outdeg[s] += 1
        indeg[t] += 1
    line = line and all(d <= 1 for d in outdeg.values()) and all(
        d <= 1 for d in indeg.values()
    )
    line = line and sum(1 for v in pres.quiver.vertices if indeg[v] == 0) == 1
    line = line and pres.relation_count == 0 and pres.dim == c.B.dim
    ok = ok and line
    report(
        7,
        ok,
        f"self-orthogonal={rep.self_orthogonal}, generates={rep.generates} "
        f"(round {rep.rounds}), endo dim {pres.dim}, linear quiver: {line}",
    )


def test_criterion_8_projective_dimension_bounds():
    c = corpus(1)
    ok = True
    notes = []
    width = c.F_BA.width
    for x in c.indecomposables_B():
        dx = projdim(x, 6)
        M, _ = stable_image(c.F_BA, x)
        dm = projdim(M, 6)
        if dx is None or dm is None or not (dm <= dx <= dm + width):
            ok = False
            notes.append(f"bounds fail at {x.dims}")
    fin_b = max(projdim(x, 6) for x in c.indecomposables_B())
    fin_a = max(projdim(x, 6) for x in c.indecomposables_A())
    if abs(fin_a - fin_b) > width:
        ok = False
        notes.append(f"findim gap {fin_a} vs {fin_b}")
    report(
        8,
        ok,
        f"two-sided bounds on {len(c.indecomposables_B())} modules; "
        f"findim {fin_b} vs {fin_a} (width {width}); {notes[:3]}",
    )


def test_criterion_9_oracle_equivalence():
    c = corpus(1)
    keps = dual_numbers()
    ok = True
    mismatches = []
    for alg, seed in ((c.A, 31), (c.B, 32), (c.Lam, 33), (c.Gam, 34)):
        rng = np.random.default_rng(seed)
        done = 0
        while done < 50:
            m = random_module(alg, rng, summands=1)
            n = random_module(alg, rng, summands=1)
            if m.is_zero() or n.is_zero():
                continue
            done += 1
            for i in range(5):
                lhs = hom_d_dim(module_complex(m), module_complex(n), i)
                rhs = ext(m, n, i)
                if lhs != rhs:
                    ok = False
                    mismatches.append((alg.dim, i, lhs, rhs))
    report(9, ok, f"200 module pairs x degrees 0..4; mismatches: {mismatches[:3]}")
