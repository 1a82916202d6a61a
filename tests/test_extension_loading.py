"""A definitions file that spells out a dual-numbers extension loads as
that extension: `parse_definitions` replaces an algebra equal to
`b.dual_numbers_extension()`, for an algebra b of the same file, by that
object, so it records its base and loops wherever it came from."""

import json
import pathlib

import pytest

from quivhom.cli import _corpus_tables
from quivhom.corpus import corpus
from quivhom.functors import compose, eps_extension
from quivhom.gorenstein import RESTRICTION_RULE, is_gorenstein_projective
from quivhom.io import Definitions, parse_definitions, serialize_definitions

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples" / "eps_extension.json"


def _reparsed(n):
    c = corpus(n)
    algebras, modules, functors = _corpus_tables(c)
    return c, parse_definitions(serialize_definitions(Definitions(c.p, algebras, modules, {}, functors)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_reparsed_corpus_loads_its_extensions(n):
    _, defs = _reparsed(n)
    A, B = defs.algebras["A"], defs.algebras["B"]
    assert defs.algebras["Lambda"] is A.dual_numbers_extension()
    assert defs.algebras["Gamma"] is B.dual_numbers_extension()
    assert (defs.algebras["Lambda"].base, defs.algebras["Gamma"].base) == (A, B)
    assert (A.base, B.base) == (None, None)
    assert defs.modules["M_0_1"].algebra is defs.algebras["Gamma"]
    assert defs.functors["F"].source is defs.algebras["Gamma"]


@pytest.mark.parametrize("n", [1, 2])
def test_reparsed_modules_get_the_corpus_verdicts(n):
    c, defs = _reparsed(n)
    for (i, l), m in c.M.items():
        want = is_gorenstein_projective(m, 8)
        got = is_gorenstein_projective(defs.modules[f"M_{i}_{l}"], 8)
        assert (got.verdict, got.certificate, got.rule) == (want.verdict, want.certificate, RESTRICTION_RULE)


def test_file_functors_compose_with_the_extension_of_their_base_data():
    _, defs = _reparsed(1)
    fg = compose(eps_extension(defs.functors["F_BA"]), defs.functors["G"])
    assert (fg.source, fg.target) == (defs.algebras["Gamma"], defs.algebras["Gamma"])


def test_the_worked_file_loads_gamma_as_the_extension_of_b():
    defs = parse_definitions(EXAMPLE.read_text())
    gam, b = defs.algebras["Gamma"], defs.algebras["B"]
    assert gam.base is b and gam is b.dual_numbers_extension()
    assert is_gorenstein_projective(defs.modules["M"], 8).rule == RESTRICTION_RULE


def _example(edit):
    doc = json.loads(EXAMPLE.read_text())
    del doc["modules"]
    edit(doc["algebras"])
    return parse_definitions(json.dumps(doc)).algebras


def _drop_commutation(algebras):
    algebras["Gamma"]["relations"].pop()


def _rename_loop(algebras):
    text = json.dumps(algebras["Gamma"]).replace('"eps_1"', '"e_1"')
    algebras["Gamma"] = json.loads(text)


def _drop_base(algebras):
    del algebras["B"]


@pytest.mark.parametrize("edit", [_drop_commutation, _rename_loop, _drop_base], ids=["commutation", "loop-name", "no-base"])
def test_a_near_miss_loads_as_a_plain_algebra(edit):
    algebras = _example(edit)
    assert algebras["Gamma"].base is None and algebras["Gamma"].loops == {}
    if "B" in algebras:
        assert algebras["B"].dual_numbers_extension() is not algebras["Gamma"]


def test_relations_match_as_a_set():
    def reorder(algebras):
        rels = algebras["Gamma"]["relations"]
        rels.reverse()
        rels[0] = rels[0][::-1]

    algebras = _example(reorder)
    assert algebras["Gamma"] is algebras["B"].dual_numbers_extension()
