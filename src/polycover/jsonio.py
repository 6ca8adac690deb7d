"""JSON and DOT serialization for every interchange format, plus the
path-precise input validators backing the command line.

All emitters are deterministic: collections are sorted canonically and
rationals are printed as decimal-free strings, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

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
from .dimension import CRefinement, MuReport, RefinementReport, SearchResult
from .errors import InvalidArgument, PolycoverError, SchemaError
from .realization import (
    BarycentricPoint,
    PolyhedralSpace,
    StarSet,
    stage_point,
    star_set,
)
from .selections import CanonicalMap, CarrierMappingSequence, carrier_tables

SCHEMA_VERSION = 1

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def dumps(payload: dict) -> str:
    """Stable JSON text with the schema version stamped in."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _expect_list(value, path: str) -> list:
    _expect(isinstance(value, list), path, "expected an array")
    return value


def _expect_str(value, path: str) -> str:
    _expect(isinstance(value, str), path, "expected a string")
    _expect(value != "", path, "expected a nonempty string")
    return value


def _expect_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _expect_obj(value, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected an object")
    return value


# -- complexes ---------------------------------------------------------------

def complex_to_json(c: SimplicialComplex) -> dict:
    return {
        "maximal_simplices": [
            sorted(vlabel(v) for v in s) for s in maximal_simplices(c)
        ]
    }


def _simplices_from_json(data, path: str, empty: str) -> SimplicialComplex:
    """The face closure of a nonempty list of nonempty vertex-label lists;
    `empty` is the message for an empty outer list."""
    raw = _expect_list(data, path)
    _expect(len(raw) > 0, path, empty)
    sets = []
    for i, entry in enumerate(raw):
        entry = _expect_list(entry, f"{path}[{i}]")
        _expect(len(entry) > 0, f"{path}[{i}]", "simplices are nonempty")
        sets.append({_expect_str(v, f"{path}[{i}][{j}]") for j, v in enumerate(entry)})
    return validate_complex(sets)


def complex_from_json(data, path: str = "$") -> SimplicialComplex:
    obj = _expect_obj(data, path)
    return _simplices_from_json(
        obj.get("maximal_simplices"), f"{path}.maximal_simplices", "needs at least one simplex"
    )


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


# -- points and star-sets ----------------------------------------------------

def point_to_json(p: BarycentricPoint) -> dict:
    return {
        "level": p.level,
        "coords": {vlabel(v): str(Fraction(c)) for v, c in p.coords.items() if c},
    }


def point_from_json(space: PolyhedralSpace, data, path: str = "$") -> BarycentricPoint:
    obj = _expect_obj(data, path)
    level = _expect_int(obj.get("level"), f"{path}.level")
    coords = _expect_obj(obj.get("coords"), f"{path}.coords")
    parsed = {}
    for key, value in coords.items():
        here = f"{path}.coords[{key!r}]"
        value = _expect_str(value, here)
        _expect(
            bool(_RATIONAL.match(value)), here, "rationals are decimal-free strings like '1/3'"
        )
        _expect(
            int(value.partition("/")[2] or 1) != 0, here, "a denominator must be nonzero"
        )
        parsed[key] = Fraction(value)
    space.stage(level)
    try:
        return stage_point(space, level, parsed)
    except InvalidArgument as err:
        raise SchemaError(f"{path}.coords", str(err)) from None


def star_set_to_json(s: StarSet) -> dict:
    return {
        "level": s.level,
        "stars": sorted(vlabel(v) for v in s.core_vertices),
    }


def _stars_from_json(space: PolyhedralSpace, level: int, obj: dict, path: str) -> StarSet:
    """The level-`level` star-set named by the `stars` label list of obj.
    A level that names no stage is refused as a level, before any label."""
    stars = _expect_list(obj.get("stars"), f"{path}.stars")
    names = [_expect_str(v, f"{path}.stars[{i}]") for i, v in enumerate(stars)]
    space.stage(level)
    try:
        return star_set(space, level, names)
    except InvalidArgument as err:
        raise SchemaError(f"{path}.stars", str(err)) from None


def star_set_from_json(space: PolyhedralSpace, data, path: str = "$") -> StarSet:
    obj = _expect_obj(data, path)
    level = _expect_int(obj.get("level"), f"{path}.level")
    _expect(obj.get("stars") != [], f"{path}.stars", "a star-set needs core vertices")
    return _stars_from_json(space, level, obj, path)


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


def cover_from_json(data, path: str = "$") -> CoverSequence:
    obj = _expect_obj(data, path)
    base = complex_from_json(obj.get("space"), f"{path}.space")
    space = PolyhedralSpace(base)
    level = _expect_int(obj.get("working_level"), f"{path}.working_level")
    raw_levels = _expect_list(obj.get("levels"), f"{path}.levels")
    _expect(len(raw_levels) > 0, f"{path}.levels", "needs at least one level")
    levels = []
    for n, raw_family in enumerate(raw_levels):
        raw_family = _expect_list(raw_family, f"{path}.levels[{n}]")
        family = []
        for i, raw in enumerate(raw_family):
            here = f"{path}.levels[{n}][{i}]"
            raw = _expect_obj(raw, here)
            eid = _expect_str(raw.get("id"), f"{here}.id")
            family.append((eid, _stars_from_json(space, level, raw, here)))
        levels.append(family)
    try:
        return cover_sequence(space, levels)
    except PolycoverError as err:
        raise SchemaError(f"{path}.levels", str(err)) from None


# -- nerves ------------------------------------------------------------------

def _pair(v) -> list:
    return [v[0], v[1]]


def _pairs(vertices) -> list:
    return sorted((_pair(v) for v in vertices), key=lambda p: (p[1], p[0]))


def _pair_from_json(value, path: str) -> tuple:
    pair = _expect_list(value, path)
    _expect(len(pair) == 2, path, "expected an [id, level] pair")
    return _expect_str(pair[0], f"{path}[0]"), _expect_int(pair[1], f"{path}[1]")


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


def canonical_map_from_json(
    cs: CoverSequence, data, path: str = "$", kappa: int | None = None
) -> CanonicalMap:
    obj = _expect_obj(data, path)
    level = _expect_int(obj.get("subdivision_level"), f"{path}.subdivision_level")
    kind = obj.get("target_kind", DELTA)
    _expect(
        kind in ("delta", "full_nerve"),
        f"{path}.target_kind",
        "must be 'delta' or 'full_nerve'",
    )
    images_raw = _expect_obj(obj.get("vertex_images"), f"{path}.vertex_images")
    stage = cs.space.stage_complex(level)
    images = {}
    for name, pair in images_raw.items():
        here = f"{path}.vertex_images[{name!r}]"
        image = _pair_from_json(pair, here)
        try:
            v = cs.space.vertex_named(level, name)
        except InvalidArgument as err:
            raise SchemaError(here, str(err)) from None
        images[v] = image
    target = delta_subcomplex(cs, kappa) if kind == DELTA else nerve(cs, kappa)
    return CanonicalMap(level, SimplicialMap(stage, target, images), kind)


def delta_map_to_json(f: SimplicialMap) -> dict:
    return {
        "vertex_images": [
            {"vertex": _pair(v), "image": vlabel(f.vertex_images[v])}
            for v in sorted(f.vertex_images, key=vlabel)
        ]
    }


def delta_map_from_json(
    cs: CoverSequence, target: SimplicialComplex, data, path: str = "$"
) -> SimplicialMap:
    obj = _expect_obj(data, path)
    rows = _expect_list(obj.get("vertex_images"), f"{path}.vertex_images")
    elements = {(eid, n) for eid, n, _ in cs.elements()}
    images = {}
    for i, row in enumerate(rows):
        here = f"{path}.vertex_images[{i}]"
        row = _expect_obj(row, here)
        vertex = _pair_from_json(row.get("vertex"), f"{here}.vertex")
        _expect(vertex in elements, f"{here}.vertex", "names no cover element")
        name = _expect_str(row.get("image"), f"{here}.image")
        _expect(name in target.by_label, f"{here}.image", "names no target vertex")
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


def tables_from_json(
    space: PolyhedralSpace, data, path: str = "$"
) -> CarrierMappingSequence:
    obj = _expect_obj(data, path)
    level = _expect_int(obj.get("level"), f"{path}.level")
    target = complex_from_json(obj.get("target"), f"{path}.target")
    witness = obj.get("cone_witness")
    if witness is not None:
        witness = _expect_str(witness, f"{path}.cone_witness")
    raw_tables = _expect_list(obj.get("tables"), f"{path}.tables")
    stage = space.stage_complex(level)
    by_token = {simplex_label(s): s for s in stage.simplices}
    tables = []
    for k, raw in enumerate(raw_tables):
        raw = _expect_obj(raw, f"{path}.tables[{k}]")
        table = {}
        for token, sets in raw.items():
            here = f"{path}.tables[{k}][{token!r}]"
            _expect(token in by_token, here, "token names no working-stage simplex")
            table[by_token[token]] = _simplices_from_json(
                sets, here, "table values are nonempty complexes"
            )
        tables.append(table)
    try:
        return carrier_tables(space, level, target, tables, witness)
    except PolycoverError as err:
        raise SchemaError(f"{path}.tables", str(err)) from None


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


def refinement_from_json(cs: CoverSequence, data, path: str = "$") -> CRefinement:
    obj = _expect_obj(data, path)
    kappa = _expect_int(obj.get("kappa"), f"{path}.kappa")
    raw_families = _expect_list(obj.get("families"), f"{path}.families")
    _expect(
        len(raw_families) == kappa, f"{path}.families", "family count must equal kappa"
    )
    families = []
    for n, raw_family in enumerate(raw_families):
        raw_family = _expect_list(raw_family, f"{path}.families[{n}]")
        family = []
        for i, raw in enumerate(raw_family):
            here = f"{path}.families[{n}][{i}]"
            raw = _expect_obj(raw, here)
            eid = _expect_str(raw.get("id"), f"{here}.id")
            level = _expect_int(raw.get("level"), f"{here}.level")
            family.append((eid, _stars_from_json(cs.space, level, raw, here)))
        families.append(tuple(family))
    return CRefinement(tuple(families), kappa, cs)


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

def cone_input_from_json(data, path: str = "$") -> dict:
    obj = _expect_obj(data, path)
    source = complex_from_json(obj.get("source"), f"{path}.source")
    target = complex_from_json(obj.get("target"), f"{path}.target")
    images_raw = _expect_obj(obj.get("vertex_images"), f"{path}.vertex_images")
    images = {}
    for name, image in images_raw.items():
        here = f"{path}.vertex_images[{name!r}]"
        _expect(name in source.vertices, here, "names no source vertex")
        images[name] = _expect_str(image, here)
    new_vertex = _expect_str(obj.get("new_vertex"), f"{path}.new_vertex")
    witness = _expect_str(obj.get("witness_vertex"), f"{path}.witness_vertex")
    raw_chain = _expect_list(obj.get("chain"), f"{path}.chain")
    _expect(len(raw_chain) >= 2, f"{path}.chain", "needs at least two members")
    chain = [
        complex_from_json(entry, f"{path}.chain[{i}]")
        for i, entry in enumerate(raw_chain)
    ]
    return {
        "map": SimplicialMap(source, target, images),
        "new_vertex": new_vertex,
        "witness": witness,
        "chain": chain,
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
