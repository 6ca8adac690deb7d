"""Brute-force known-answer checker, independent of the program under test.

Everything here works on the printable form that the command line emits:
vertex labels (`a`, `b(a,b)`, `b(b(a),b(a,b))`, ...), star-sets as
`(level, labels)` and cover elements as `(id, level)` pairs.  The checker
builds its own barycentric subdivision tower from the base complex's
maximal simplices and decides every question by sweeping all simplices of
a common stage, so a bug in the program's subdivision, pushdown, relation,
nerve or verifier code cannot hide behind the same bug here.

Nothing in this module imports `polycover`.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path


def bary(labels) -> str:
    """Label of the barycenter of a simplex given by its vertex labels."""
    return "b(" + ",".join(sorted(labels)) + ")"


class Stage:
    """One subdivision stage: simplices as frozensets of labels, plus the
    simplices meeting each vertex."""

    def __init__(self, simplices):
        self.simplices = list(simplices)
        self.vertices = frozenset(v for s in self.simplices for v in s)
        star: dict = {v: [] for v in self.vertices}
        for s in self.simplices:
            for v in s:
                star[v].append(s)
        self.star = star

    def meeting(self, core) -> set:
        """All simplices whose vertex set meets `core`."""
        out: set = set()
        for v in core:
            out.update(self.star[v])
        return out


class Tower:
    """The barycentric subdivision tower of a base complex, by labels."""

    def __init__(self, maximal):
        closure = set()
        for raw in maximal:
            raw = tuple(raw)
            for r in range(1, len(raw) + 1):
                closure.update(frozenset(c) for c in itertools.combinations(raw, r))
        self.stages = [Stage(closure)]

    def stage(self, level: int) -> Stage:
        while len(self.stages) <= level:
            self.stages.append(_subdivide(self.stages[-1]))
        return self.stages[level]

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.stages[0].simplices) - 1

    def push(self, level: int, core, target: int) -> frozenset:
        """The core of the same star-set re-expressed at a finer level."""
        core = frozenset(core)
        for m in range(level, target):
            core = frozenset(bary(t) for t in self.stage(m).meeting(core))
        return core


def _subdivide(stage: Stage) -> Stage:
    chains: dict = {}
    for s in sorted(stage.simplices, key=len):
        ending = [(s,)]
        for r in range(1, len(s)):
            for face in itertools.combinations(sorted(s), r):
                ending.extend(ch + (s,) for ch in chains[frozenset(face)])
        chains[s] = ending
    return Stage(
        {frozenset(bary(x) for x in ch) for ending in chains.values() for ch in ending}
    )


_TOWERS: dict = {}


def tower_for(maximal) -> Tower:
    """Shared tower per base complex, so repeated checks build stages once."""
    key = frozenset(frozenset(s) for s in maximal)
    if key not in _TOWERS:
        _TOWERS[key] = Tower([sorted(s) for s in key])
    return _TOWERS[key]


# -- covers and refinements in label form -------------------------------------

def cover_levels(doc: dict) -> list:
    """[[(id, core)], ...] at the document's working level."""
    return [
        [(e["id"], frozenset(e["stars"])) for e in family] for family in doc["levels"]
    ]


def refinement_families(doc: dict) -> list:
    """[[(id, level, core)], ...] from refinement JSON."""
    return [
        [(e["id"], e["level"], frozenset(e["stars"])) for e in family]
        for family in doc["families"]
    ]


def refinement_fault(tower: Tower, cover_level: int, levels: list, families: list):
    """None for a valid C-refinement, else the first failing property.

    Properties are tested in the order disjointness, refinement, coverage,
    so a certificate broken in one way reports the same kind the
    verifier's contract names.
    """
    common = max([cover_level] + [lv for fam in families for _, lv, _ in fam])
    stage = tower.stage(common)
    pushed = [
        [(eid, tower.push(lv, core, common)) for eid, lv, core in fam]
        for fam in families
    ]
    for n, fam in enumerate(pushed):
        owner: dict = {}
        for eid, core in fam:
            for s in stage.meeting(core):
                if owner.setdefault(s, eid) != eid:
                    return ("overlap", n)
    padded = list(levels) + [levels[-1]] * (len(families) - len(levels))
    for n, fam in enumerate(pushed):
        coarse = [tower.push(cover_level, core, common) for _, core in padded[n]]
        for eid, core in fam:
            inside = stage.meeting(core)
            if not any(all(s & c for s in inside) for c in coarse):
                return ("not_a_refinement", n)
    covered = set()
    for fam in pushed:
        for _, core in fam:
            covered |= core
    if stage.vertices - covered:
        return ("uncovered", None)
    return None


# -- nerves -------------------------------------------------------------------

def nerve_simplices(tower: Tower, level: int, levels: list, kappa: int, delta: bool) -> set:
    """Kernel-nonempty vertex sets, by enumerating every stage simplex.

    A set of elements has nonempty kernel iff some stage simplex meets all
    their cores; every subset of such a simplex's hit set qualifies.
    """
    stage = tower.stage(level)
    hits = set()
    for tau in stage.simplices:
        hits.add(
            frozenset(
                (eid, n)
                for n in range(kappa)
                for eid, core in levels[n]
                if tau & core
            )
        )
    out = set()
    for hit in hits:
        hit = sorted(hit)
        for r in range(1, len(hit) + 1):
            for sub in itertools.combinations(hit, r):
                if delta and len({n for _, n in sub}) != len(sub):
                    continue
                out.add(frozenset(sub))
    return out


def nerve_from_json(doc: dict) -> set:
    return {frozenset((eid, n) for eid, n in s) for s in doc["simplices"]}


# -- canonical maps and selections ---------------------------------------------

def map_fault(tower: Tower, cover_level: int, levels: list, kappa: int, doc: dict):
    """None if the map JSON is a canonical map and a selection, else a reason.

    Canonical: the open star of each vertex lies in its image element.
    Selection: each stage simplex meets the core of every element its
    vertices map to.
    """
    level = doc["subdivision_level"]
    stage = tower.stage(level)
    images = {v: (p[0], p[1]) for v, p in doc["vertex_images"].items()}
    if set(images) != set(stage.vertices):
        return "map does not cover the stage"
    cores = {}
    for n in range(kappa):
        for eid, core in levels[n]:
            cores[(eid, n)] = tower.push(cover_level, core, level)
    for v, e in images.items():
        if e not in cores:
            return "image names no element"
        if not all(s & cores[e] for s in stage.star[v]):
            return "not canonical"
    for tau in stage.simplices:
        for e in {images[v] for v in tau}:
            if not tau & cores[e]:
                return "not a selection"
    return None


def map_image_fault(tower: Tower, doc: dict, target: set):
    """None if every stage simplex maps onto a simplex of `target`."""
    stage = tower.stage(doc["subdivision_level"])
    images = {v: (p[0], p[1]) for v, p in doc["vertex_images"].items()}
    for tau in stage.simplices:
        if frozenset(images[v] for v in tau) not in target:
            return "image simplex is not in the target nerve"
    return None


# -- complexes ----------------------------------------------------------------

def maximal_of(raw) -> set:
    sets = {frozenset(s) for s in raw}
    return {s for s in sets if not any(s < t for t in sets)}


# -- schemas ------------------------------------------------------------------

class Schemas:
    """Validators for the bundled `schemas/*.schema.json`, resolving `$ref`
    between them through a local registry (no network lookups)."""

    def __init__(self, directory: Path):
        from jsonschema import Draft202012Validator
        from referencing import Registry, Resource

        docs = {
            p.name.removesuffix(".schema.json"): json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("*.schema.json"))
        }
        registry = Registry().with_resources(
            (d["$id"], Resource.from_contents(d)) for d in docs.values()
        )
        self.validators = {
            name: Draft202012Validator(d, registry=registry) for name, d in docs.items()
        }

    def errors(self, name: str, instance) -> list:
        return [
            f"{name}: {e.json_path}: {e.message}"
            for e in self.validators[name].iter_errors(instance)
        ]
