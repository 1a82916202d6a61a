"""Textual definition format: one JSON document describing a field, bound
quiver algebras, modules, complexes, and functor data.

See docs/FORMAT.md for the schema.  Parsing validates every invariant at
load time (admissibility, relation vanishing, commuting squares, strict
functor relations) and reports the section and name of any failure.
Serialization round-trips: serialize(parse(file)) reparses to equal
objects.
"""

from __future__ import annotations

import json

from .algebra import BoundQuiverAlgebra, Element, Quiver
from .complexes import Complex
from .exactlin import DEFAULT_PRIME, Matrix, check_prime
from .functors import FunctorData
from .modules import ProjSummands, RepHom, Representation
from .projcplx import ProjChainMap, ProjComplex


class DefinitionError(ValueError):
    """Schema or invariant failure, with a location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class Definitions:
    def __init__(self, p: int, algebras, modules, complexes, functors):
        self.p = p
        self.algebras: dict[str, BoundQuiverAlgebra] = algebras
        self.modules: dict[str, Representation] = modules
        self.complexes: dict[str, Complex] = complexes
        self.functors: dict[str, FunctorData] = functors


SECTIONS = ("field", "algebras", "modules", "complexes", "functors")

# the keys that each kind of object may have
KEYS = {
    "top-level": SECTIONS,
    "field": ("p",),
    "algebra": ("vertices", "arrows", "relations"),
    "module": ("algebra", "dims", "mats"),
    "complex": ("algebra", "terms", "diffs"),
    "functor": ("source", "target", "images", "arrow_maps"),
    "image": ("terms", "diffs"),
}


def _object(x, loc: str, kind: str | None = None) -> dict:
    """x, an object; with a kind, one whose keys are among KEYS[kind]."""
    if not isinstance(x, dict):
        raise DefinitionError(loc, f"expected an object, got {type(x).__name__}")
    unknown = sorted(set(x) - set(KEYS[kind])) if kind else []
    if unknown:
        raise DefinitionError(loc, f"unknown {kind} key {unknown[0]!r}; the keys are {', '.join(KEYS[kind])}")
    return x


def _list(x, loc: str) -> list:
    if not isinstance(x, list):
        raise DefinitionError(loc, f"expected a list, got {type(x).__name__}")
    return x


def _name(x, loc: str) -> str:
    if not isinstance(x, str):
        raise DefinitionError(loc, f"expected a name, got {type(x).__name__}")
    return x


def _names(x, loc: str) -> list[str]:
    return [_name(v, loc) for v in _list(x, loc)]


def _entries(x, loc: str, kind: str | None = None):
    """(name, location, entry) for each entry of the object x at loc, each
    entry an object (of the given kind)."""
    for name, entry in _object(x, loc).items():
        yield name, f"{loc}.{name}", _object(entry, f"{loc}.{name}", kind)


def _built(loc: str, make, *args):
    """make(*args), with a ValueError reported as a DefinitionError at loc."""
    try:
        return make(*args)
    except ValueError as e:
        raise DefinitionError(loc, str(e))


def _int(x, loc: str) -> int:
    """Decimal strings pass (degrees are object keys); booleans and fractions do not."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise DefinitionError(loc, f"not an integer: {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError):
        raise DefinitionError(loc, f"not an integer: {x!r}")


def _parse_element(q: Quiver, p: int, data, loc: str) -> Element:
    """An element or relation: a list of [coeff, source, arrows] terms,
    each a path of q that starts at a vertex and composes."""
    out: Element = {}
    for item in _list(data, loc):
        if len(_list(item, loc)) != 3:
            raise DefinitionError(loc, "element entry must be [coeff, source, arrows]")
        coeff, src, arrows = item
        pth = (_name(src, loc), tuple(_names(arrows, loc)))
        v = pth[0]
        if v not in q.vertices:
            raise DefinitionError(loc, f"unknown vertex {v}")
        for a in pth[1]:
            if a not in q.arrow_by_name:
                raise DefinitionError(loc, f"unknown arrow {a}")
            if q.source(a) != v:
                raise DefinitionError(loc, f"path {pth} not composable at {a}")
            v = q.target(a)
        out[pth] = (out.get(pth, 0) + _int(coeff, loc)) % p
    return {k: v for k, v in out.items() if v}


def _element_json(e: Element):
    return [[int(c), pth[0], list(pth[1])] for pth, c in sorted(e.items())]


def _parse_emat(alg, data, rows, cols, loc):
    if len(_list(data, loc)) != rows or any(len(_list(r, loc)) != cols for r in data):
        raise DefinitionError(loc, f"expected a {rows} x {cols} block matrix")
    return [[_parse_element(alg.quiver, alg.p, data[r][c], f"{loc}[{r}][{c}]") for c in range(cols)] for r in range(rows)]


def parse_definitions(text: str) -> Definitions:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DefinitionError("document", f"invalid JSON: {e}")
    _object(doc, "document", "top-level")
    p = _int(_object(doc.get("field", {}), "field", "field").get("p", DEFAULT_PRIME), "field.p")
    _built("field.p", check_prime, p)
    algebras: dict[str, BoundQuiverAlgebra] = {}
    for name, loc, entry in _entries(doc.get("algebras", {}), "algebras", "algebra"):
        aloc = f"{loc}.arrows"
        arrows = [_names(a, aloc) for a in _list(entry.get("arrows"), aloc)]
        q = _built(loc, Quiver, _names(entry.get("vertices"), f"{loc}.vertices"), arrows)
        rloc = f"{loc}.relations"
        rels = [_parse_element(q, p, rel, f"{rloc}[{idx}]") for idx, rel in enumerate(_list(entry.get("relations", []), rloc))]
        algebras[name] = _built(loc, BoundQuiverAlgebra, q, rels, p)
    # an algebra that spells out the dual-numbers extension of another in the
    # file is that extension, which records its base and loops
    for name, alg in algebras.items():
        for base in algebras.values():
            if alg.spells_extension_of(base):
                algebras[name] = base.dual_numbers_extension()
                break
    modules: dict[str, Representation] = {}
    for name, loc, entry in _entries(doc.get("modules", {}), "modules", "module"):
        alg = _lookup(algebras, entry.get("algebra"), loc, "algebra")
        dims = {}
        for v, d in _object(entry.get("dims", {}), f"{loc}.dims").items():
            if str(v) not in alg.quiver.vertices:
                raise DefinitionError(loc, f"unknown vertex {v}")
            dims[str(v)] = _int(d, f"{loc}.dims.{v}")
        mats = {}
        for aname, rows in _object(entry.get("mats", {}), f"{loc}.mats").items():
            if aname not in alg.quiver.arrow_by_name:
                raise DefinitionError(loc, f"unknown arrow {aname}")
            s, t = alg.quiver.arrow_by_name[aname]
            mats[aname] = _parse_matrix(p, rows, dims.get(t, 0), dims.get(s, 0), f"{loc}.mats.{aname}")
        modules[name] = _built(loc, Representation, alg, dims, mats)
    complexes: dict[str, Complex] = {}
    for name, loc, entry in _entries(doc.get("complexes", {}), "complexes", "complex"):
        alg = _lookup(algebras, entry.get("algebra"), loc, "algebra")
        terms = {}
        for deg, mname in _object(entry.get("terms", {}), f"{loc}.terms").items():
            terms[_int(deg, loc)] = _lookup(modules, mname, loc, "module")
        diffs = {}
        for deg, dloc, matentry in _entries(entry.get("diffs", {}), f"{loc}.diffs"):
            i = _int(deg, loc)
            if i not in terms or i + 1 not in terms:
                raise DefinitionError(loc, f"differential at {i} without both terms")
            src, tgt = terms[i], terms[i + 1]
            mats = {}
            for v, rows in matentry.items():
                if str(v) not in alg.quiver.vertices:
                    raise DefinitionError(dloc, f"unknown vertex {v}")
                mats[str(v)] = _parse_matrix(p, rows, tgt.dims[str(v)], src.dims[str(v)], f"{dloc}.{v}")
            diffs[i] = _built(dloc, RepHom, src, tgt, mats)
        complexes[name] = _built(loc, Complex, alg, terms, diffs)
    functors: dict[str, FunctorData] = {}
    for name, loc, entry in _entries(doc.get("functors", {}), "functors", "functor"):
        src = _lookup(algebras, entry.get("source"), loc, "algebra")
        tgt = _lookup(algebras, entry.get("target"), loc, "algebra")
        images = {}
        for v, iloc, ientry in _entries(entry.get("images", {}), f"{loc}.images", "image"):
            if str(v) not in src.quiver.vertices:
                raise DefinitionError(iloc, "unknown source vertex")
            terms = {}
            for deg, verts in _object(ientry.get("terms", {}), f"{iloc}.terms").items():
                summands = _names(verts, f"{iloc}.terms.{deg}")
                for w in summands:
                    if w not in tgt.quiver.vertices:
                        raise DefinitionError(iloc, f"unknown target vertex {w}")
                terms[_int(deg, iloc)] = ProjSummands(tgt, summands)
            dmats = {}
            for deg, block in _object(ientry.get("diffs", {}), f"{iloc}.diffs").items():
                i = _int(deg, iloc)
                rows = len(terms.get(i + 1, ProjSummands(tgt, ())).vertices)
                cols = len(terms.get(i, ProjSummands(tgt, ())).vertices)
                dmats[i] = _parse_emat(tgt, block, rows, cols, f"{iloc}.diffs.{deg}")
            images[str(v)] = _built(iloc, ProjComplex, tgt, terms, dmats)
        for v in src.quiver.vertices:
            if v not in images:
                raise DefinitionError(f"{loc}.images", f"missing image of vertex {v}")
        arrow_maps = {}
        for aname, aloc, mentry in _entries(entry.get("arrow_maps", {}), f"{loc}.arrow_maps"):
            if aname not in src.quiver.arrow_by_name:
                raise DefinitionError(aloc, "unknown source arrow")
            s, t = src.quiver.arrow_by_name[aname]
            comps = {}
            for deg, block in mentry.items():
                i = _int(deg, aloc)
                rows = len(images[s].summands(i).vertices)
                cols = len(images[t].summands(i).vertices)
                comps[i] = _parse_emat(tgt, block, rows, cols, f"{aloc}.{deg}")
            arrow_maps[aname] = ProjChainMap(images[t], images[s], comps)
        for aname in src.quiver.arrow_by_name:
            if aname not in arrow_maps:
                raise DefinitionError(f"{loc}.arrow_maps", f"missing map of arrow {aname}")
        functors[name] = _built(loc, FunctorData, src, tgt, images, arrow_maps)
    return Definitions(p, algebras, modules, complexes, functors)


def _lookup(table, name, loc, what):
    """The entry called name in table (algebras or modules)."""
    if _name(name, loc) not in table:
        raise DefinitionError(loc, f"unknown {what} {name}")
    return table[name]


def _parse_matrix(p, rows, nrows, ncols, loc) -> Matrix:
    if len(_list(rows, loc)) != nrows or any(len(_list(r, loc)) != ncols for r in rows):
        raise DefinitionError(loc, f"expected a {nrows} x {ncols} matrix")
    if nrows == 0 or ncols == 0:
        return Matrix.zeros(p, nrows, ncols)
    return Matrix(p, [[_int(x, loc) for x in r] for r in rows])


def serialize_definitions(defs: Definitions) -> str:
    doc: dict = {"field": {"p": defs.p}}
    if defs.algebras:
        doc["algebras"] = {}
        for name, alg in defs.algebras.items():
            doc["algebras"][name] = {
                "vertices": list(alg.quiver.vertices),
                "arrows": [list(a) for a in alg.quiver.arrows],
                "relations": [_element_json(r) for r in alg.relations],
            }
    ralg = {id(a): n for n, a in defs.algebras.items()}
    if defs.modules:
        doc["modules"] = {}
        for name, m in defs.modules.items():
            doc["modules"][name] = {
                "algebra": ralg[id(m.algebra)],
                "dims": dict(m.dims),
                "mats": {a: m.mats[a].data.tolist() for a in m.mats if not m.mats[a].is_zero()},
            }
    rmod = {id(m): n for n, m in defs.modules.items()}
    if defs.complexes:
        doc["complexes"] = {}
        for name, c in defs.complexes.items():
            doc["complexes"][name] = {
                "algebra": ralg[id(c.algebra)],
                "terms": {str(i): rmod[id(t)] for i, t in c.terms.items()},
                "diffs": {
                    str(i): {v: d.mats[v].data.tolist() for v in d.mats}
                    for i, d in c.diffs.items()
                },
            }
    if defs.functors:
        doc["functors"] = {}
        for name, f in defs.functors.items():
            images = {}
            for v, img in f.images.items():
                images[v] = {
                    "terms": {str(i): list(t.vertices) for i, t in img.terms.items()},
                    "diffs": {
                        str(i): [[_element_json(e) for e in row] for row in d]
                        for i, d in img.dmats.items()
                    },
                }
            arrow_maps = {}
            for a, am in f.arrow_maps.items():
                arrow_maps[a] = {
                    str(i): [[_element_json(e) for e in row] for row in comp]
                    for i, comp in am.comps.items()
                }
            doc["functors"][name] = {
                "source": ralg[id(f.source)],
                "target": ralg[id(f.target)],
                "images": images,
                "arrow_maps": arrow_maps,
            }
    return json.dumps(doc, indent=1, sort_keys=True)


def module_dot(m: Representation, name: str = "module") -> str:
    """DOT digraph of a module: one node per basis vector labeled by its
    vertex, one edge per nonzero arrow-action entry."""
    lines = [f"digraph {name} {{"]
    ids = {}
    for v in m.algebra.quiver.vertices:
        for k in range(m.dims[v]):
            ids[(v, k)] = f"n{len(ids)}"
            lines.append(f'  {ids[(v, k)]} [label="{v}"];')
    for a, s, t in m.algebra.quiver.arrows:
        mat = m.mats[a].data
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                if mat[i, j]:
                    lab = a if int(mat[i, j]) == 1 else f"{a}:{int(mat[i, j])}"
                    lines.append(f'  {ids[(s, j)]} -> {ids[(t, i)]} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)
