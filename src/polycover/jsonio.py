"""JSON and DOT serialization for every interchange format, plus the
path-precise input readers backing the command line.

All emitters are deterministic: collections are sorted canonically, so
identical inputs give byte-identical outputs.

Every reader walks its document through one private type, `_At`, a value
with its path.  It alone formats paths (`$.field`, `[i]`, `['key']`) and
raises the shape refusals ("expected an object", "expected an array",
"expected a string", "expected a nonempty string", "expected an integer",
and the caller's message for an empty array), so each is a `SchemaError`
at the path of the offending value.  The one
reader of star-set families serves covers, which put every element at the
working level, and refinements, whose elements carry their own level.

A library refusal becomes a `SchemaError` at the path of the value it
concerns only where a reader builds from labels or elements: an
`InvalidArgument` from `star_set`, `PolyhedralSpace.vertex_at` or
`check_families`, and any `PolycoverError` from `cover_sequence` or
`carrier_tables`.  Everything else escapes as itself:
a level that names no stage is refused as a level (`InvalidArgument`)
before any label is read at it, and an internal error is never reported
as a schema error.
"""

from __future__ import annotations

import json

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    maximal_simplices,
    simplex_key,
    simplex_label,
    validate_complex,
    vlabel,
)
from .covers import (
    DELTA,
    CoverSequence,
    cover_sequence,
    delta_subcomplex,
    nerve,
)
from .dimension import CRefinement, MuReport, RefinementReport, SearchResult, check_families
from .errors import InvalidArgument, PolycoverError, SchemaError
from .realization import PolyhedralSpace, StarSet, star_set
from .selections import CanonicalMap, CarrierMappingSequence, carrier_tables

SCHEMA_VERSION = 1


def dumps(payload: dict) -> str:
    """Stable JSON text with the schema version stamped in."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


class _At:
    """A document value and its path: the one place that formats a path,
    raises a shape refusal, or maps a library refusal to a SchemaError."""

    __slots__ = ("value", "path")

    def __init__(self, value, path: str):
        self.value = value
        self.path = path

    def check(self, cond, message: str) -> None:
        if not cond:
            raise SchemaError(self.path, message)

    def field(self, name: str, default=None) -> _At:
        """A field of an object; a missing one reads as `default`."""
        self.check(isinstance(self.value, dict), "expected an object")
        return _At(self.value.get(name, default), f"{self.path}.{name}")

    def items(self) -> list:
        """The (key, value) entries of an object."""
        self.check(isinstance(self.value, dict), "expected an object")
        return [(key, _At(v, f"{self.path}[{key!r}]")) for key, v in self.value.items()]

    def _array(self, empty: str | None) -> list:
        self.check(isinstance(self.value, list), "expected an array")
        self.check(self.value or empty is None, empty)
        return self.value

    def entries(self, empty: str | None = None) -> list:
        """The elements of an array; `empty` refuses an empty one."""
        return [_At(v, f"{self.path}[{i}]") for i, v in enumerate(self._array(empty))]

    def string(self) -> str:
        self.check(isinstance(self.value, str), "expected a string")
        self.check(self.value != "", "expected a nonempty string")
        return self.value

    def strs(self, empty: str | None = None) -> list:
        """An array of nonempty strings, read in one pass: an element gets
        a path only to be refused."""
        values = self._array(empty)
        for i, v in enumerate(values):
            if not (isinstance(v, str) and v):
                _At(v, f"{self.path}[{i}]").string()
        return values

    def integer(self) -> int:
        v = self.value
        self.check(isinstance(v, int) and not isinstance(v, bool), "expected an integer")
        return v

    def build(self, refusal: type, make, *args):
        """make(*args), with a `refusal` raised as a SchemaError here."""
        try:
            return make(*args)
        except refusal as err:
            raise SchemaError(self.path, str(err)) from None


# -- complexes ---------------------------------------------------------------

def complex_to_json(c: SimplicialComplex) -> dict:
    return {
        "maximal_simplices": [
            sorted(vlabel(v) for v in s) for s in maximal_simplices(c)
        ]
    }


def _faces(at: _At, empty: str) -> SimplicialComplex:
    """The face closure of a nonempty list of nonempty vertex-label lists;
    `empty` is the message for an empty outer list."""
    return validate_complex([set(s.strs("simplices are nonempty")) for s in at.entries(empty)])


def _complex(at: _At) -> SimplicialComplex:
    return _faces(at.field("maximal_simplices"), "needs at least one simplex")


def complex_from_json(data) -> SimplicialComplex:
    return _complex(_At(data, "$"))


def _to_dot(c: SimplicialComplex, name: str, caption: str) -> str:
    """A DOT graph of c's vertices and edges, labelled with the caption
    and the simplex count per dimension."""
    counts: dict = {}
    for s in c.simplices:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    label = caption + ", ".join(f"{k}-simplices: {counts[k]}" for k in sorted(counts))
    lines = [f"graph {json.dumps(name)} {{", f'  label="{label}";']
    for v in sorted(c.vertices, key=vlabel):
        lines.append(f"  {json.dumps(vlabel(v))};")
    for s in sorted((s for s in c.simplices if len(s) == 2), key=simplex_key):
        a, b = sorted(vlabel(v) for v in s)
        lines.append(f"  {json.dumps(a)} -- {json.dumps(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_to_dot(c: SimplicialComplex) -> str:
    return _to_dot(c, "complex", "")


# -- star-set families -------------------------------------------------------

def _star_set(space: PolyhedralSpace, at: _At, level: int | None) -> StarSet:
    """The star-set named by the `stars` labels of at, at `level`, or at
    its own `level` field when that is None.  A level that names no stage
    is refused as a level, before any label."""
    if level is None:
        level = at.field("level").integer()
    stars = at.field("stars")
    names = stars.strs()
    space.stage(level)
    return stars.build(InvalidArgument, star_set, space, level, names)


def _families(space: PolyhedralSpace, rows: list, level: int | None) -> list:
    """The (id, star-set) elements of each row, every one at `level`, or
    at its own `level` field when that is None."""
    return [
        [(e.field("id").string(), _star_set(space, e, level)) for e in row.entries()]
        for row in rows
    ]


# -- cover sequences ---------------------------------------------------------

def cover_to_json(cs: CoverSequence) -> dict:
    return {
        "space": complex_to_json(cs.space.base),
        "working_level": cs.working_level,
        "levels": [
            [
                {"id": eid, "stars": sorted(vlabel(v) for v in star.core_vertices)}
                for eid, star in family
            ]
            for family in cs.levels
        ],
    }


def cover_from_json(data) -> CoverSequence:
    doc = _At(data, "$")
    space = PolyhedralSpace(_complex(doc.field("space")))
    level = doc.field("working_level").integer()
    levels = doc.field("levels")
    families = _families(space, levels.entries("needs at least one level"), level)
    return levels.build(PolycoverError, cover_sequence, space, families)


# -- nerves ------------------------------------------------------------------

def _pair(v) -> list:
    return [v[0], v[1]]


def _pairs(vertices) -> list:
    return sorted((_pair(v) for v in vertices), key=lambda p: (p[1], p[0]))


def _cover_vertex(at: _At) -> tuple:
    """An [id, level] pair naming a cover element."""
    pair = at.entries()
    at.check(len(pair) == 2, "expected an [id, level] pair")
    return pair[0].string(), pair[1].integer()


def nerve_to_json(c: SimplicialComplex, kind: str) -> dict:
    return {
        "kind": kind,
        "vertices": _pairs(c.vertices),
        "simplices": [_pairs(s) for s in c.sorted_simplices()],
    }


def nerve_to_dot(c: SimplicialComplex, kind: str) -> str:
    return _to_dot(c, kind, kind + " | ")


def unindexed_to_json(c: SimplicialComplex) -> dict:
    return {
        "vertices": sorted(vlabel(v) for v in c.vertices),
        "simplices": [
            sorted(vlabel(v) for v in s) for s in c.sorted_simplices()
        ],
    }


# -- canonical maps ----------------------------------------------------------

def canonical_map_to_json(f: CanonicalMap) -> dict:
    return {
        "subdivision_level": f.subdivision_level,
        "target_kind": f.kind,
        "vertex_images": {
            vlabel(v): _pair(image)
            for v, image in sorted(
                f.map.vertex_images.items(), key=lambda kv: vlabel(kv[0])
            )
        },
    }


def canonical_map_from_json(cs: CoverSequence, data, kappa: int | None = None) -> CanonicalMap:
    doc = _At(data, "$")
    level = doc.field("subdivision_level").integer()
    kind = doc.field("target_kind", DELTA)
    kind.check(kind.value in ("delta", "full_nerve"), "must be 'delta' or 'full_nerve'")
    rows = doc.field("vertex_images").items()
    stage = cs.space.stage_complex(level)
    images = {}
    for name, row in rows:
        image = _cover_vertex(row)
        images[row.build(InvalidArgument, cs.space.vertex_at, level, name)] = image
    target = delta_subcomplex(cs, kappa) if kind.value == DELTA else nerve(cs, kappa)
    return CanonicalMap(level, SimplicialMap(stage, target, images), kind.value)


def delta_map_to_json(f: SimplicialMap) -> dict:
    return {
        "vertex_images": [
            {"vertex": _pair(v), "image": vlabel(f.vertex_images[v])}
            for v in sorted(f.vertex_images, key=vlabel)
        ]
    }


def delta_map_from_json(cs: CoverSequence, target: SimplicialComplex, data) -> SimplicialMap:
    rows = _At(data, "$").field("vertex_images").entries()
    elements = {(eid, n) for eid, n, _ in cs.elements()}
    images = {}
    for row in rows:
        at = row.field("vertex")
        vertex = _cover_vertex(at)
        at.check(vertex in elements, "names no cover element")
        at = row.field("image")
        name = at.string()
        at.check(name in target.by_label, "names no target vertex")
        images[vertex] = target.by_label[name]
    return SimplicialMap(delta_subcomplex(cs, cs.num_levels), target, images)


# -- carrier tables ----------------------------------------------------------

def tables_to_json(phi: CarrierMappingSequence) -> dict:
    stage = phi.space.stage_complex(phi.level)
    tables = []
    for table in phi.tables:
        entry = {}
        for tau in sorted(stage.simplices, key=simplex_key):
            entry[simplex_label(tau)] = [
                sorted(vlabel(v) for v in s) for s in maximal_simplices(table[tau])
            ]
        tables.append(entry)
    return {
        "level": phi.level,
        "target": complex_to_json(phi.target),
        "cone_witness": None if phi.cone_witness is None else vlabel(phi.cone_witness),
        "tables": tables,
    }


def tables_from_json(space: PolyhedralSpace, data) -> CarrierMappingSequence:
    doc = _At(data, "$")
    level = doc.field("level").integer()
    target = _complex(doc.field("target"))
    witness = doc.field("cone_witness")
    witness = None if witness.value is None else witness.string()
    raw_tables = doc.field("tables")
    rows = raw_tables.entries()
    stage = space.stage_complex(level)
    by_token = {simplex_label(s): s for s in stage.simplices}
    tables = []
    for row in rows:
        table = {}
        for token, sets in row.items():
            sets.check(token in by_token, "token names no working-stage simplex")
            table[by_token[token]] = _faces(sets, "table values are nonempty complexes")
        tables.append(table)
    return raw_tables.build(PolycoverError, carrier_tables, space, level, target, tables, witness)


# -- refinements, search, reports --------------------------------------------

def refinement_to_json(r: CRefinement) -> dict:
    return {
        "kappa": r.kappa,
        "families": [
            [
                {
                    "id": eid,
                    "level": star.level,
                    "stars": sorted(vlabel(v) for v in star.core_vertices),
                }
                for eid, star in family
            ]
            for family in r.families
        ],
    }


def refinement_from_json(cs: CoverSequence, data) -> CRefinement:
    doc = _At(data, "$")
    kappa = doc.field("kappa").integer()
    rows = doc.field("families")
    r = CRefinement(tuple(map(tuple, _families(cs.space, rows.entries(), None))), kappa, cs)
    rows.build(InvalidArgument, check_families, r)
    return r


def report_to_json(report: RefinementReport) -> dict:
    return {
        "ok": report.ok,
        "failure": report.failure,
        "witness": report.witness,
    }


def _audits_to_json(audits) -> list:
    return [
        {"level": a.level, "nodes": a.nodes, "prunes": a.prunes, "found": a.found}
        for a in audits
    ]


def search_to_json(result: SearchResult) -> dict:
    return {
        "status": result.status,
        "level": result.level,
        "audits": _audits_to_json(result.audits),
        "refinement": (
            None if result.refinement is None else refinement_to_json(result.refinement)
        ),
    }


def mu_report_to_json(report: MuReport) -> dict:
    return {
        "mode": report.mode,
        "n": report.n,
        "kappa": report.kappa,
        "dim": report.dim,
        "success": report.success,
        "failure": report.failure,
        "refinement": {
            "method": report.refinement_method,
            "ok": report.refinement_ok,
            "family_sizes": list(report.family_sizes),
        },
        "canonical_map": {
            "subdivision_level": report.canonical_level,
            "simplicial": report.map_is_simplicial,
            "canonical": report.map_is_canonical,
            "selection": report.map_is_selection,
        },
        "roundtrip": {
            "ok": report.roundtrip_ok,
            "family_sizes": list(report.roundtrip_family_sizes),
        },
        "search_audits": _audits_to_json(report.search_audits),
    }


# -- cone extension input ----------------------------------------------------

def cone_input_from_json(data) -> dict:
    doc = _At(data, "$")
    source = _complex(doc.field("source"))
    target = _complex(doc.field("target"))
    images = {}
    for name, image in doc.field("vertex_images").items():
        image.check(name in source.vertices, "names no source vertex")
        images[name] = image.string()
    new_vertex = doc.field("new_vertex").string()
    witness = doc.field("witness_vertex").string()
    chain = doc.field("chain")
    members = chain.entries()
    chain.check(len(members) >= 2, "needs at least two members")
    return {
        "map": SimplicialMap(source, target, images),
        "new_vertex": new_vertex,
        "witness": witness,
        "chain": [_complex(member) for member in members],
    }


def simplicial_map_to_json(m: SimplicialMap) -> dict:
    return {
        "source": complex_to_json(m.source),
        "target": complex_to_json(m.target),
        "vertex_images": {
            vlabel(v): vlabel(m.vertex_images[v])
            for v in sorted(m.vertex_images, key=vlabel)
        },
    }
