import json

import pytest

from quivhom.cli import Context, OperationError, _find_ses, build_parser, main
from quivhom.corpus import corpus
from quivhom.homological import DRAWS
from quivhom.io import (
    DefinitionError,
    module_dot,
    parse_definitions,
    serialize_definitions,
)
from quivhom.modules import zero_rep
from quivhom.stable import exact_sequence_image

SAMPLE = """
{
 "field": {"p": 101},
 "algebras": {
  "T": {
   "vertices": ["0", "1", "2", "3"],
   "arrows": [["a1", "1", "0"], ["b1", "1", "3"], ["a3", "3", "2"]],
   "relations": [[[1, "1", ["b1", "a3"]]]]
  }
 },
 "modules": {
  "X": {"algebra": "T", "dims": {"0": 1, "1": 1}, "mats": {"a1": [[1]]}},
  "Y": {"algebra": "T", "dims": {"3": 1}, "mats": {}}
 },
 "complexes": {
  "C": {"algebra": "T", "terms": {"0": "X", "1": "Y"}, "diffs": {}}
 },
 "functors": {
  "Id": {
   "source": "T", "target": "T",
   "images": {
    "0": {"terms": {"0": ["0"]}, "diffs": {}},
    "1": {"terms": {"0": ["1"]}, "diffs": {}},
    "2": {"terms": {"0": ["2"]}, "diffs": {}},
    "3": {"terms": {"0": ["3"]}, "diffs": {}}
   },
   "arrow_maps": {
    "a1": {"0": [[[[1, "1", ["a1"]]]]]},
    "b1": {"0": [[[[1, "1", ["b1"]]]]]},
    "a3": {"0": [[[[1, "3", ["a3"]]]]]}
   }
  }
 }
}
"""


def test_parse_sample():
    defs = parse_definitions(SAMPLE)
    assert defs.algebras["T"].dim == 7
    assert defs.modules["X"].total_dim() == 2
    assert defs.complexes["C"].hi == 1
    assert defs.functors["Id"].width == 0


def test_roundtrip():
    defs = parse_definitions(SAMPLE)
    text = serialize_definitions(defs)
    defs2 = parse_definitions(text)
    assert defs2.algebras["T"].path_basis == defs.algebras["T"].path_basis
    assert defs2.modules["X"].dims == defs.modules["X"].dims
    assert defs2.modules["X"].mats["a1"] == defs.modules["X"].mats["a1"]
    assert serialize_definitions(defs2) == text


def test_unknown_arrow_reported():
    bad = SAMPLE.replace('"relations": [[[1, "1", ["b1", "a3"]]]]', '"relations": [[[1, "1", ["zz", "a3"]]]]')
    with pytest.raises(DefinitionError) as exc:
        parse_definitions(bad)
    assert "zz" in str(exc.value)
    assert "relations" in str(exc.value)


def test_bad_matrix_shape_reported():
    bad = SAMPLE.replace('"mats": {"a1": [[1]]}', '"mats": {"a1": [[1, 2]]}')
    with pytest.raises(DefinitionError) as exc:
        parse_definitions(bad)
    assert "modules.X" in str(exc.value)


def test_relation_violation_reported():
    bad = SAMPLE.replace(
        '"X": {"algebra": "T", "dims": {"0": 1, "1": 1}, "mats": {"a1": [[1]]}}',
        '"X": {"algebra": "T", "dims": {"1": 1, "2": 1, "3": 1}, "mats": {"b1": [[1]], "a3": [[1]]}}',
    )
    with pytest.raises(DefinitionError):
        parse_definitions(bad)


def test_module_dot_output():
    defs = parse_definitions(SAMPLE)
    dot = module_dot(defs.modules["X"])
    assert dot.startswith("digraph")
    assert 'label="a1"' in dot


def run_cli(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_cli_ext():
    code, out = run_cli(
        ["--corpus", "1", "--format", "json", "ext", "--from", "simple_A_1", "--to", "simple_A_0", "--degree", "1"]
    )
    assert code == 0
    assert json.loads(out) == {"ext_dim": 1}


def test_cli_gp_check_table():
    code, out = run_cli(["--corpus", "1", "gp-check", "--module", "M_1_3", "--depth", "4"])
    assert code == 0
    assert "verdict: gp\n" in out and "gorenstein_dimension: 1\n" in out


def test_cli_gp_check_below_the_gorenstein_dimension():
    # Lambda has g = 2: at depth 1 the verdict is the two-sided one, with
    # no certificate; at depth 2 it is certified
    code, out = run_cli(["--corpus", "1", "--format", "json", "gp-check", "--module", "SP_1", "--depth", "1"])
    assert code == 0
    assert json.loads(out) == {"depth": 1, "gorenstein_dimension": None, "verdict": "gp-up-to-depth", "witness": None}
    code, out = run_cli(["--corpus", "1", "--format", "json", "gp-check", "--module", "SP_1", "--depth", "2"])
    assert json.loads(out)["gorenstein_dimension"] == 2


def test_cli_stable_image_json_deterministic():
    args = ["--corpus", "1", "--format", "json", "stable-image", "--functor", "F", "--module", "SQ_3"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["total_dim"] >= 1


def test_cli_compare_kd():
    code, out = run_cli(
        ["--corpus", "1", "--format", "json", "compare-kd", "--source", "SQ_1", "--target", "SQ_2", "--shift", "0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphism"] in (True, False)


def test_cli_unknown_module_is_operation_error(capsys):
    code = main(["--corpus", "1", "ext", "--from", "nope", "--to", "SQ_1", "--degree", "0"])
    assert code == 1


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["--defs", str(bad), "ext", "--from", "X", "--to", "Y", "--degree", "0"])
    assert code == 2


def test_cli_prime_above_bound_exit_2(tmp_path, capsys):
    assert main(["--prime", str(2**31 - 1), "--corpus", "1", "projdim", "--module", "proj_A_1"]) == 2
    assert "MAX_PRIME" in capsys.readouterr().err
    defs = json.loads(SAMPLE)
    defs["field"]["p"] = 2**31 - 1
    f = tmp_path / "defs.json"
    f.write_text(json.dumps(defs))
    assert main(["--defs", str(f), "projdim", "--module", "X"]) == 2


@pytest.mark.parametrize("algebras", [{}, {"K": {"vertices": ["0"], "arrows": []}}])
def test_a_bad_field_prime_is_refused_at_load(tmp_path, capsys, algebras):
    """field.p is checked before anything is built from it, so the error
    names field.p whether or not the file defines an algebra."""
    text = json.dumps({"field": {"p": 4}, "algebras": algebras})
    with pytest.raises(DefinitionError, match=r"^field.p: field order must be an odd prime, got 4$"):
        parse_definitions(text)
    f = tmp_path / "defs.json"
    f.write_text(text)
    assert main(["--defs", str(f), "--corpus", "1", "projdim", "--module", "proj_A_1"]) == 2
    assert capsys.readouterr().err == "parse error: field.p: field order must be an odd prime, got 4\n"


def test_an_explicit_prime_must_match_the_file(tmp_path, capsys):
    """Without --prime the file's prime holds; an explicit --prime that
    differs from it is an error, the default 101 included."""
    defs = json.loads(SAMPLE)
    defs["field"]["p"] = 103
    f = tmp_path / "defs.json"
    f.write_text(json.dumps(defs))
    for prime in ([], ["--prime", "103"]):
        assert Context(build_parser().parse_args([*prime, "--defs", str(f), "projdim", "--module", "X"])).p == 103
    for prime in ("101", "107"):
        assert main(["--prime", prime, "--defs", str(f), "projdim", "--module", "X"]) == 1
        assert capsys.readouterr().err == "error: definitions file uses a different prime\n"


def test_cli_defs_file(tmp_path):
    f = tmp_path / "defs.json"
    f.write_text(SAMPLE)
    code, out = run_cli(
        ["--defs", str(f), "--format", "json", "ext", "--from", "X", "--to", "Y", "--degree", "1"]
    )
    assert code == 0
    assert "ext_dim" in out


def test_cli_exact_image_corpus_pair():
    code, out = run_cli(
        ["--corpus", "1", "--format", "json", "exact-image", "--functor", "F", "--pair", "1,2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] and payload["P_projective"] and payload["Q_projective"]


def test_cli_exact_image_finds_the_corpus_sequence_from_its_ends():
    """--sub/--mid/--quot searches the sequence that --pair reads off the
    corpus, and transports it to the same answer."""
    base = ["--corpus", "1", "--format", "json", "exact-image", "--functor", "F"]
    found = run_cli([*base, "--sub", "SQ_0", "--mid", "M_0_1", "--quot", "SQ_1"])
    assert found == run_cli([*base, "--pair", "0,1"])
    assert found[0] == 0 and json.loads(found[1])["exact"]


def test_cli_exact_image_names_the_draw_budget(capsys):
    """No sequence S (x) Q_0 -> M(0, 1) -> S (x) Q_2 exists; the search
    stops at the shared draw budget and says so."""
    args = ["--corpus", "1", "exact-image", "--functor", "F", "--sub", "SQ_0", "--mid", "M_0_1", "--quot", "SQ_2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no short exact sequence found with the given ends within budget = {DRAWS} random maps\n"


def test_cli_exact_image_says_when_no_monomorphism_exists(capsys):
    """Hom(S (x) Q_0, S (x) Q_3) = 0, so no draw is made: the answer is
    that no monomorphism exists, not that the budget ran out."""
    args = ["--corpus", "1", "exact-image", "--functor", "F", "--sub", "SQ_0", "--mid", "SQ_3", "--quot", "SQ_1"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no short exact sequence with the given ends: Hom(sub, mid) = 0, so no monomorphism sub -> mid exists\n"


def test_exact_image_search_takes_the_zero_map_from_a_zero_sub():
    """Hom(0, mid) = 0, yet the zero map is a monomorphism: 0 -> mid -> quot
    -> 0 is found when quot is mid, and transports to an exact sequence."""
    c = corpus(1)
    zero = zero_rep(c.Gam)
    incl, proj = _find_ses(None, zero, c.S_Q[1], c.S_Q[1], 0)
    assert incl.source is zero and incl.target is c.S_Q[1] and proj.target.total_dim() == c.S_Q[1].total_dim()
    assert exact_sequence_image(c.F, incl, proj).verify_exact()
    with pytest.raises(OperationError, match="sub = 0, and no isomorphism mid -> quot was found"):
        _find_ses(None, zero, c.S_Q[1], c.S_Q[2], 0)
    with pytest.raises(OperationError, match=r"Hom\(sub, mid\) = 0, so no monomorphism"):
        _find_ses(None, c.S_Q[0], c.S_Q[3], c.S_Q[1], 0)


def test_cli_gp_check_reads_the_same_from_the_corpus_verb_output(tmp_path):
    """The definitions that `corpus --n 1` writes, loaded with --defs, give
    every M(i, l) the gp-check answer of --corpus 1, byte for byte."""
    code, out = run_cli(["corpus", "--n", "1"])
    assert code == 0
    f = tmp_path / "corpus1.json"
    f.write_text(json.dumps(json.loads(out)["definitions"]))
    names = [name for name in json.loads(out)["definitions"]["modules"] if name.startswith("M_")]
    assert len(names) == 10
    for name in names:
        verb = ["--format", "json", "gp-check", "--module", name]
        assert run_cli(["--defs", str(f), *verb]) == run_cli(["--corpus", "1", *verb])


def test_cli_corpus_emission(tmp_path, capsys):
    out_file = tmp_path / "corpus.json"
    code, _ = run_cli(["corpus", "--n", "1", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["manifest"]["pair_count"] == 10
    # the emitted definitions reparse
    defs = parse_definitions(json.dumps(payload["definitions"]))
    assert defs.algebras["Gamma"].dim == 20
    assert "F" in defs.functors
    # the file itself wraps them, so as --defs it is refused, not loaded empty
    capsys.readouterr()
    assert main(["--defs", str(out_file), "gp-check", "--module", "M_0_1"]) == 2
    assert capsys.readouterr().err.startswith("parse error: document: unknown top-level key 'definitions'")


def test_cli_decompose():
    code, out = run_cli(["--corpus", "1", "--format", "json", "decompose", "--module", "M_0_2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pieces"]) == 1


def test_cli_exact_image_pair_without_sequence_is_an_error_line(capsys):
    assert main(["--corpus", "1", "exact-image", "--functor", "F", "--pair", "0,4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no corpus sequence for pair 0,4")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--pair", "1"], "--pair: expected a corpus pair i,l"),
        (["--pair", "a,b"], "--pair: expected a corpus pair i,l"),
        ([], "needs --pair i,l or all of --sub, --mid and --quot"),
        (["--sub", "SQ_1", "--mid", "M_0_2"], "needs --pair i,l or all of --sub, --mid and --quot"),
    ],
)
def test_cli_exact_image_usage_errors_exit_2(args, message, capsys):
    assert main(["--corpus", "1", "exact-image", "--functor", "F", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", ["simple_A_99", "proj_A_99", "proj_A", "simple_Gamma"])
def test_cli_module_at_unknown_vertex_is_unknown(name, capsys):
    assert main(["--corpus", "1", "--format", "json", "projdim", "--module", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown module {name}")


def test_cli_projdim():
    code, out = run_cli(["--corpus", "1", "--format", "json", "projdim", "--module", "proj_A_1", "--bound", "4"])
    assert code == 0
    assert json.loads(out)["projdim"] == 0


def test_cli_projdim_of_repeated_simple_small_prime(tmp_path):
    # dim End(S_1^3) = 9 >= p = 3 rules out a certified decomposition;
    # the projective dimension is read off the minimal resolution
    defs = json.loads(SAMPLE)
    defs["field"]["p"] = 3
    defs["modules"] = {"S3": {"algebra": "T", "dims": {"1": 3}, "mats": {}}}
    del defs["complexes"], defs["functors"]
    f = tmp_path / "defs.json"
    f.write_text(json.dumps(defs))
    code, out = run_cli(["--defs", str(f), "--format", "json", "projdim", "--module", "S3", "--bound", "5"])
    assert code == 0
    assert json.loads(out)["projdim"] == 2


@pytest.mark.parametrize(
    "fname",
    ["tree_algebra.json", "dual_numbers.json", "identity_functor.json", "eps_extension.json"],
)
def test_worked_files_parse_and_roundtrip(fname):
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples" / fname
    defs = parse_definitions(path.read_text())
    text = serialize_definitions(defs)
    defs2 = parse_definitions(text)
    assert serialize_definitions(defs2) == text


def test_worked_dual_numbers_content():
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples" / "dual_numbers.json"
    defs = parse_definitions(path.read_text())
    assert defs.algebras["D"].dim == 2
    from quivhom.complexes import homology

    c = defs.complexes["eps_period"]
    assert homology(c, 0).total_dim() == 1


def test_cli_findim_check_with_modules():
    code, out = run_cli(
        [
            "--corpus", "1", "--format", "json", "findim-check",
            "--functor", "F_BA",
            "--modules", "proj_B_0,simple_B_0,simple_B_3",
            "--bound", "5",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bounds_ok"] and payload["gap_ok"]
    # F_BA goes from the hereditary B to the gentle A
    assert (payload["gorenstein_dimension_source"], payload["gorenstein_dimension_target"]) == (1, 2)


def test_cli_stable_map_verb():
    code, out = run_cli(
        [
            "--corpus", "1", "--format", "json", "stable-map",
            "--functor", "F", "--from", "M_1_3", "--to", "M_1_3",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_is_zero"] is False


@pytest.mark.parametrize("index", ["-1", "2"])
def test_cli_stable_map_hom_index_out_of_range(index, capsys):
    argv = ["--corpus", "1", "--format", "json", "stable-map", "--functor", "F", "--from", "M_0_1", "--to", "M_0_1"]
    assert main(argv + ["--hom-index", index]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hom index out of range (dim 2)")


@pytest.mark.parametrize(
    "verb",
    [["projdim", "--module", "M_0_1"], ["findim-check", "--functor", "F_BA", "--modules", "proj_B_0"]],
)
def test_cli_negative_bound_is_an_error_line(verb, capsys):
    assert main(["--corpus", "1", "--format", "json", *verb, "--bound", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound must be >= 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--corpus", "0", "ext", "--from", "proj_A_1", "--to", "proj_A_1", "--degree", "0"], "n must be >= 1"),
        (["--corpus", "1", "resolve", "--module", "M_0_1", "--window", "3"], "window must be <= 0"),
        (["--corpus", "1", "apply", "--functor", "F", "--module", "M_0_1", "--window", "2"], "window must be <= 0"),
        (["--corpus", "1", "tilting-check", "--search-depth", "-1"], "search depth must be >= 0"),
        (["--corpus", "1", "--seed", "-1", "decompose", "--module", "M_0_1"], "--seed must be >= 0"),
        (["--corpus", "1", "--seed", "-1", "tilting-check"], "--seed must be >= 0"),
    ],
    ids=["corpus", "resolve-window", "apply-window", "search-depth", "seed-decompose", "seed-tilting-check"],
)
def test_cli_out_of_range_flag_is_an_error_line(argv, message, capsys):
    # each of these used to be ignored, to give an empty answer with exit 0
    # or, for --seed, to fail with a numpy message that names no flag
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_corpus_names_are_one_table():
    """Every name that `corpus --n 1` writes resolves through `--corpus 1`,
    and every name `--corpus 1` loads is written."""
    code, out = run_cli(["corpus", "--n", "1"])
    assert code == 0
    written = json.loads(out)["definitions"]
    ctx = Context(build_parser().parse_args(["--corpus", "1", "corpus"]))
    assert set(written["algebras"]) == set(ctx.algebras)
    assert set(written["modules"]) == set(ctx.modules)
    assert set(written["functors"]) == set(ctx.functors)
    for name, entry in written["modules"].items():
        m = ctx.module(name)
        assert m.algebra is ctx.algebras[entry["algebra"]]
        assert {v: d for v, d in m.dims.items() if d} == {v: d for v, d in entry["dims"].items() if d}
    for name, entry in written["functors"].items():
        f = ctx.functor(name)
        assert (f.source, f.target) == (ctx.algebras[entry["source"]], ctx.algebras[entry["target"]])


ENDO_CORPUS_1 = {
    "arrows": [["x0", "2", "0"], ["x1", "3", "1"], ["x2", "0", "3"]],
    "dim": 10,
    "multiplicities": [1, 1, 1, 1],
    "relation_count": 0,
    "vertices": ["0", "1", "2", "3"],
}


def test_cli_endo_refuses_a_prime_not_above_dim_end(capsys):
    # the trace form finds rad E only when p > dim E (= 10 here)
    assert main(["--prime", "3", "--corpus", "1", "--format", "json", "endo"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dim End = 10 >= p = 3")


def test_cli_endo_payload_at_default_prime():
    code, out = run_cli(["--corpus", "1", "--format", "json", "endo"])
    assert code == 0
    assert json.loads(out) == ENDO_CORPUS_1


def test_cli_decomposition_error_is_an_error_line(tmp_path, capsys):
    # S_0^3 over linear A_2: dim End = 9 >= p = 3, so no certified split
    doc = {
        "field": {"p": 3},
        "algebras": {"A2": {"vertices": ["0", "1"], "arrows": [["a", "0", "1"]], "relations": []}},
        "modules": {"M": {"algebra": "A2", "dims": {"0": 3}, "mats": {}}},
    }
    f = tmp_path / "S.json"
    f.write_text(json.dumps(doc))
    assert main(["--prime", "3", "--defs", str(f), "decompose", "--module", "M"]) == 1
    assert capsys.readouterr().err.startswith("error: dim End = 9 >= p = 3")


def test_cli_cosyzygy_error_is_an_error_line(capsys):
    assert main(["--corpus", "1", "cosyzygy", "--module", "simple_G_0", "--depth", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: module is not GP to depth 2")


@pytest.mark.parametrize("verb", ["gp-check", "cosyzygy"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_cli_local_depth_below_one_is_an_error(capsys, verb, depth):
    # a local --depth 0 used to fall back to the global default of 8
    assert main(["--corpus", "1", verb, "--module", "M_0_1", "--depth", depth]) == 1
    assert capsys.readouterr().err == "error: depth must be >= 1\n"


@pytest.mark.parametrize("verb", ["gp-check", "cosyzygy"])
def test_cli_global_depth_below_one_is_an_error(capsys, verb):
    assert main(["--corpus", "1", "--depth", "0", verb, "--module", "M_0_1"]) == 1
    assert capsys.readouterr().err == "error: depth must be >= 1\n"


@pytest.mark.parametrize("verb", ["gp-check", "cosyzygy"])
def test_cli_depth_is_one_value_in_either_position(verb):
    """The verb's --depth and the global one set one value, the verb's
    winning when both are given."""
    outs = [
        run_cli(["--corpus", "1", "--format", "json", "--depth", "3", verb, "--module", "M_0_1"]),
        run_cli(["--corpus", "1", "--format", "json", verb, "--module", "M_0_1", "--depth", "3"]),
        run_cli(["--corpus", "1", "--format", "json", "--depth", "0", verb, "--module", "M_0_1", "--depth", "3"]),
    ]
    assert outs[0][0] == 0 and outs.count(outs[0]) == 3
    assert verb == "cosyzygy" or json.loads(outs[0][1])["depth"] == 3


BAD_DEFINITIONS = {
    "document_not_an_object": (SAMPLE, "[1, 2]", "document: expected an object, got list"),
    "unknown_top_level_key": ('"algebras": {', '"algebra": {', "document: unknown top-level key 'algebra'"),
    "field_not_an_object": ('"field": {"p": 101}', '"field": 5', "field: expected an object, got int"),
    "section_not_an_object": (
        '"complexes": {\n  "C": {"algebra": "T", "terms": {"0": "X", "1": "Y"}, "diffs": {}}\n }',
        '"complexes": [1, 2]',
        "complexes: expected an object, got list",
    ),
    "entry_not_an_object": ('"Y": {"algebra": "T", "dims": {"3": 1}, "mats": {}}', '"Y": 3', "modules.Y: expected an object, got int"),
    "dims_not_an_object": ('"dims": {"3": 1}', '"dims": [3]', "modules.Y.dims: expected an object, got list"),
    "image_not_an_object": ('"0": {"terms": {"0": ["0"]}, "diffs": {}}', '"0": [0]', "functors.Id.images.0: expected an object, got list"),
    "unknown_field_key": ('"field": {"p": 101}', '"field": {"p": 101, "q": 3}', "field: unknown field key 'q'"),
    "unknown_module_key": ('"dims": {"3": 1}', '"dim": {"3": 1}', "modules.Y: unknown module key 'dim'"),
    "relation_not_a_list": ('"relations": [[[1, "1", ["b1", "a3"]]]]', '"relations": [5]', "algebras.T.relations[0]: expected a list, got int"),
    "algebra_not_a_name": ('"Y": {"algebra": "T"', '"Y": {"algebra": ["T"]', "modules.Y: expected a name, got list"),
    "matrix_not_a_list": ('"mats": {"a1": [[1]]}', '"mats": {"a1": 3}', "modules.X.mats.a1: expected a list, got int"),
    "unknown_module_vertex": (
        '"Y": {"algebra": "T", "dims": {"3": 1}, "mats": {}}',
        '"Y": {"algebra": "T", "dims": {"3": 1, "9": 2}, "mats": {}}',
        "modules.Y: unknown vertex 9",
    ),
    "unknown_differential_vertex": (
        '"terms": {"0": "X", "1": "Y"}, "diffs": {}}',
        '"terms": {"0": "X", "1": "Y"}, "diffs": {"0": {"9": [[1]]}}}',
        "complexes.C.diffs.0: unknown vertex 9",
    ),
    "non_numeric_matrix_entry": (
        '"mats": {"a1": [[1]]}',
        '"mats": {"a1": [["one"]]}',
        "modules.X.mats.a1: not an integer",
    ),
    "fractional_dimension": ('"dims": {"0": 1, "1": 1}', '"dims": {"0": 1.7, "1": 1}', "modules.X.dims.0: not an integer: 1.7"),
    "boolean_matrix_entry": ('"mats": {"a1": [[1]]}', '"mats": {"a1": [[true]]}', "modules.X.mats.a1: not an integer: True"),
    "missing_functor_image": (
        ',\n    "3": {"terms": {"0": ["3"]}, "diffs": {}}',
        "",
        "functors.Id.images: missing image of vertex 3",
    ),
    "arrow_map_not_a_chain_map": (
        '"1": {"terms": {"0": ["1"]}, "diffs": {}}',
        '"1": {"terms": {"0": ["1"], "1": ["1"]}, "diffs": {"0": [[[[1, "1", []]]]]}}',
        "functors.Id: arrow map a1 is not a chain map at degree 0",
    ),
    "missing_arrow_map": (
        ',\n    "a3": {"0": [[[[1, "3", ["a3"]]]]]}',
        "",
        "functors.Id.arrow_maps: missing map of arrow a3",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_DEFINITIONS))
def test_bad_definitions_are_parse_errors(case, tmp_path, capsys):
    old, new, message = BAD_DEFINITIONS[case]
    assert SAMPLE.count(old) == 1
    bad = SAMPLE.replace(old, new)
    with pytest.raises(DefinitionError) as exc:
        parse_definitions(bad)
    assert str(exc.value).startswith(message)
    f = tmp_path / "defs.json"
    f.write_text(bad)
    assert main(["--defs", str(f), "projdim", "--module", "X"]) == 2
    assert capsys.readouterr().err.startswith("parse error: " + message)
