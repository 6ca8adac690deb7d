"""Seeded job streams for the `search`, `deep-verify` and `cli-mix` workloads.

A job is `prepare()` (untimed: builds arguments that need earlier
results), `run(arg)` (the timed call into the program) and
`check(arg, result)` (untimed: returns the problems found, the job's
output bytes for the workload digest, and the job's size).  Every input
is drawn from `random.Random` seeded by the run seed; the program sees
only the generated covers, maps, refinements and documents.

Streams are unbounded lists of rounds and never repeat an input: element
ids carry the job's index, so no two jobs share a cover document and the
program's nerve cache is never hit across jobs.  Every round has the same
composition (one draw per stratum or slot), and a run measures whole
rounds, so every run sees the same mix of job sizes whatever the seed.

Why these workloads:

search       `search_c_refinement` on covers of the triangle at working
             level 1 whose elements each lie in one base-vertex star:
             kappa=2 is always exhausted (Lebesgue's covering theorem),
             kappa=3 is found.  The DFS in `dimension` does nearly all the
             work, so a change to the search shows here and nowhere else.
deep-verify  library calls on fresh spaces at working levels 2 and 3:
             construct and verify refinements (stage 4 has 3,937
             simplices), reject corrupted copies whose failure kind is
             planted, run `mu_driver`.  Whole-stage sweeps in
             `realization.star_relation` dominate and many queries share a
             stage; the early-exit rejections expose a change that speeds
             the full pass but slows rejection.
cli-mix      `polycover.cli.main` in-process on fresh documents over the
             edge, the boundary and the triangle at levels 0-3: each job
             parses JSON, builds the argument parser and a subdivision
             tower and resolves labels for a few queries, so per-job set-up
             carries the load; a per-stage index that pays off in
             deep-verify could lose here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker as ck
import polycover.cli
from polycover import jsonio
from polycover.complexes import validate_complex
from polycover.covers import cover_sequence
from polycover.dimension import (
    CRefinement,
    mu_driver,
    n_plus_one,
    ostrand_refine,
    search_c_refinement,
    verify_c_refinement,
)
from polycover.fixtures import tri_space, vertex_star_cover
from polycover.realization import PolyhedralSpace, star_set

HERE = Path(__file__).resolve().parent

SPACES = {
    "edge": [["a", "b"]],
    "boundary": [["a", "b"], ["b", "c"], ["a", "c"]],
    "triangle": [["a", "b", "c"]],
}

# Seed of the fixed warm-up jobs: set-up work is the same on every run.
WARMUP_SEED = 7_654_321


@dataclass
class Job:
    kind: str
    run: Callable
    check: Callable
    prepare: Callable = lambda: None


def _sizes(**kw) -> dict:
    return {k: v for k, v in kw.items() if v is not None}


def _count_elements(doc: dict) -> int:
    return sum(len(f) for f in doc["levels"])


# -- input generators (labels only) --------------------------------------------

def cover_doc(space: str, level: int, levels: list) -> dict:
    return {
        "schema_version": 1,
        "space": {"maximal_simplices": SPACES[space]},
        "working_level": level,
        "levels": levels,
    }


def blob_levels(tower, level, rng, nlevels, tag) -> list:
    """`nlevels` families that each cover the stage on their own.

    Each family grows two or three random seed vertices into regions that
    partition the stage (breadth-first, in random order), then lets each
    region take each adjacent vertex with probability 0.3.  Elements are a
    few large, thinly overlapping star-sets, like perturbed base-vertex
    stars, so every question sweeps whole stages while nerves stay small:
    the program caches full nerves, whose size grows exponentially with
    the number of elements meeting one simplex.
    """
    stage = tower.stage(level)
    verts = sorted(stage.vertices)
    nbrs = {v: sorted(set().union(*stage.star[v]) - {v}) for v in verts}
    levels = []
    for n in range(nlevels):
        seeds = rng.sample(verts, min(len(verts), rng.randint(2, 3)))
        owner = {v: i for i, v in enumerate(seeds)}
        frontier = list(seeds)
        while frontier:
            v = frontier.pop(rng.randrange(len(frontier)))
            for u in nbrs[v]:
                if u not in owner:
                    owner[u] = owner[v]
                    frontier.append(u)
        cores = [{v for v in verts if owner[v] == i} for i in range(len(seeds))]
        for i, core in enumerate(cores):
            core |= {u for v in sorted(core) for u in nbrs[v] if rng.random() < 0.3}
            if len(core) == len(verts):
                # An element that is the whole space would make every
                # star-set fit; give one vertex back to its owner.
                core.discard(rng.choice([v for v in verts if owner[v] != i]))
        levels.append(
            [{"id": f"E{n}.{i}-{tag}", "stars": sorted(core)} for i, core in enumerate(cores)]
        )
    return levels


def disjoint_levels(tower, level, rng, tag) -> list:
    """Families of pairwise-disjoint star-sets that jointly cover the stage.

    A random greedy colouring of the stage's 1-skeleton: each colour class
    is a family (its vertices are pairwise non-adjacent, so their stars are
    disjoint), split at random into elements.
    """
    stage = tower.stage(level)
    verts = sorted(stage.vertices)
    rng.shuffle(verts)
    colour: dict = {}
    for v in verts:
        used = {colour[u] for s in stage.star[v] for u in s if u in colour}
        colour[v] = min(c for c in range(len(verts)) if c not in used)
    levels = []
    for c in range(max(colour.values()) + 1):
        members = sorted(v for v in verts if colour[v] == c)
        rng.shuffle(members)
        family = []
        while members:
            take = rng.randint(1, 3)
            family.append(
                {"id": f"D{c}.{len(family)}-{tag}", "stars": sorted(members[:take])}
            )
            members = members[take:]
        levels.append(family)
    return levels


def delta_map_doc(tower, level, levels) -> dict:
    """The canonical map sending each vertex to the element whose core
    holds it (levels from `disjoint_levels`, so that element is unique)."""
    images = {}
    for n, family in enumerate(levels):
        for e in family:
            for v in e["stars"]:
                images[v] = [e["id"], n]
    return {
        "schema_version": 1,
        "subdivision_level": level,
        "target_kind": "delta",
        "vertex_images": dict(sorted(images.items())),
    }


def spoil_map(tower, level, levels, doc, rng) -> dict:
    """Send one vertex to a same-level element that misses its star."""
    images = dict(doc["vertex_images"])
    stage = tower.stage(level)
    for v in rng.sample(sorted(images), len(images)):
        eid, n = images[v]
        for e in levels[n]:
            core = frozenset(e["stars"])
            if e["id"] != eid and not all(s & core for s in stage.star[v]):
                images[v] = [e["id"], n]
                return dict(doc, vertex_images=images)
    raise ValueError("no vertex can be sent outside its star")


def barycenter_refinement(tower, level, kappa) -> dict:
    """Refinement JSON: family k holds the level+1 stars of the barycenters
    of the k-dimensional simplices of the given stage (valid whenever every
    level of the cover covers the stage at `level`)."""
    stage = tower.stage(level)
    families = []
    for k in range(kappa):
        labels = sorted(ck.bary(s) for s in stage.simplices if len(s) == k + 1)
        families.append([{"id": b, "level": level + 1, "stars": [b]} for b in labels])
    return {"schema_version": 1, "kappa": kappa, "families": families}


def spoil_refinement(doc: dict, kind: str, rng, base, tower, level, levels) -> dict:
    """A copy broken in exactly one way, so the failure kind is known.

    overlap: a family gains a second copy of one of its elements.
    not_a_refinement: family 0 becomes a single element, the whole space or
      else one base-vertex star, chosen to fit in no level-0 element.
    uncovered: one element whose core vertex no other element holds is
      dropped.
    The planted kind is confirmed by brute force before the copy is used.
    """
    fams = [list(f) for f in doc["families"]]
    if kind == "overlap":
        n = rng.randrange(len(fams))
        e = rng.choice(fams[n])
        fams[n].insert(rng.randrange(len(fams[n]) + 1), dict(e, id=e["id"] + "'"))
        candidates = [fams]
    elif kind == "uncovered":
        n = rng.randrange(len(fams))
        del fams[n][rng.randrange(len(fams[n]))]
        candidates = [fams]
    elif kind == "not_a_refinement":
        vertices = sorted({v for s in base for v in s})
        candidates = [
            [[{"id": "whole", "level": 0, "stars": stars}]] + fams[1:]
            for stars in [vertices] + [[v] for v in vertices]
        ]
    else:
        raise ValueError(kind)
    for fams in candidates:
        bad = dict(doc, families=fams)
        fault = ck.refinement_fault(tower, level, levels, ck.refinement_families(bad))
        if fault and fault[0] == kind:
            return bad
    raise ValueError(f"cannot plant {kind} in this certificate")


def random_complex_doc(rng) -> dict:
    names = [f"v{i}" for i in range(rng.randint(4, 7))]
    simplices = [
        sorted(rng.sample(names, rng.randint(1, min(4, len(names)))))
        for _ in range(rng.randint(2, 5))
    ]
    return {"schema_version": 1, "maximal_simplices": simplices}


# -- the `search` workload ---------------------------------------------------------

# Shapes whose kappa=2 search takes 400 to 40,000 nodes (about 0.01-0.6 s
# each), split by node-count quantile.  A round draws one shape from each
# stratum; the narrow middle stratum always holds the round's median job
# and the top stratum its slowest fifth, so the median and 90th-percentile
# job come from a fixed, narrow part of the catalog whatever the seed.
SEARCH_NODES = (400, 40_000)
SEARCH_STRATA = ((0.0, 0.2), (0.2, 0.4), (0.45, 0.55), (0.6, 0.8), (0.8, 1.0))


def search_strata() -> list:
    entries = json.loads((HERE / "search_catalog.json").read_text(encoding="utf-8"))
    lo, hi = SEARCH_NODES
    chosen = sorted(
        (e for e in entries if lo <= e["nodes"] <= hi),
        key=lambda e: (e["nodes"], json.dumps(e["groups"], sort_keys=True)),
    )
    n = len(chosen)
    return [chosen[round(a * n) : round(b * n)] for a, b in SEARCH_STRATA]


def _search_check(tower, doc):
    def check(_, out):
        r2, r3 = out
        problems = []
        if r2.status != "exhausted":
            problems.append(f"kappa=2 returned {r2.status}, Lebesgue says exhausted")
        if r3.status != "found":
            problems.append(f"kappa=3 returned {r3.status}, expected found")
        else:
            fault = ck.refinement_fault(
                tower,
                doc["working_level"],
                ck.cover_levels(doc),
                ck.refinement_families(jsonio.refinement_to_json(r3.refinement)),
            )
            if fault:
                problems.append(f"kappa=3 certificate fails brute force: {fault}")
        text = jsonio.dumps(jsonio.search_to_json(r2)) + jsonio.dumps(
            jsonio.search_to_json(r3)
        )
        nodes = sum(a.nodes for a in r2.audits + r3.audits)
        size = _sizes(
            level=doc["working_level"],
            stage_simplices=len(tower.stage(doc["working_level"]).simplices),
            elements=_count_elements(doc),
            nodes=nodes,
            deepest_stage=max(a.level for a in r2.audits + r3.audits),
        )
        return problems, text.encode(), size

    return check


def search_cover_doc(groups, tag) -> dict:
    return cover_doc(
        "triangle", 1, [[{"id": f"U{v}-{tag}", "stars": groups[v]} for v in "abc"]]
    )


def _search_cover_job(groups, tag, tower) -> Job:
    doc = search_cover_doc(groups, tag)

    def run(_):
        space = PolyhedralSpace(validate_complex(SPACES["triangle"]))
        family = [(e["id"], star_set(space, 1, e["stars"])) for e in doc["levels"][0]]
        cs = cover_sequence(space, [family])
        return search_c_refinement(cs, 2, 2), search_c_refinement(cs, 3, 2)

    return Job("search", run, _search_check(tower, doc))


def _search_fixture_job(tower) -> Job:
    family = [{"id": f"st({v})", "stars": [v]} for v in "abc"]
    doc = cover_doc("triangle", 0, [family, family])

    def run(_):
        cs = vertex_star_cover(tri_space(), 2)
        return search_c_refinement(cs, 2, 2), search_c_refinement(cs, 3, 2)

    return Job("search-fixture", run, _search_check(tower, doc))


def search_stream(seed: int):
    """Rounds of one cover per stratum; the first round also holds the
    345,064-node fixture."""
    rng = random.Random(seed)
    tower = ck.tower_for(SPACES["triangle"])
    strata = search_strata()
    index = 0
    while True:
        order = list(range(len(strata)))
        rng.shuffle(order)
        jobs = []
        for s in order:
            jobs.append(_search_cover_job(rng.choice(strata[s])["groups"], index, tower))
            index += 1
        if index == len(strata):
            jobs.insert(rng.randrange(len(jobs) + 1), _search_fixture_job(tower))
        yield jobs


# -- the `deep-verify` workload -------------------------------------------------------

REJECT_KINDS = ("overlap", "not_a_refinement", "uncovered")
# One round: (working level, corrupted certificates, run mu_driver) per
# group.  Sorted by latency a round is 5 early-exit rejections, 8 full
# verifier passes at level 2 (6 constructions, 2 uncovered rejections),
# the level-3 rejection that sweeps every family, 4 mu_driver runs and the
# level-3 construction, with gaps between these clusters: the median
# always falls among the level-2 passes and the 80th percentile among the
# mu_driver runs.
DEEP_ROUND = (
    (2, ("overlap",), True),
    (2, ("overlap",), False),
    (2, ("not_a_refinement",), True),
    (2, ("not_a_refinement",), False),
    (2, ("uncovered",), True),
    (2, ("uncovered",), True),
    (3, ("overlap", "not_a_refinement"), False),
)


def _library_cover(doc):
    space = PolyhedralSpace(validate_complex(doc["space"]["maximal_simplices"]))
    level = doc["working_level"]
    return cover_sequence(
        space,
        [[(e["id"], star_set(space, level, e["stars"])) for e in f] for f in doc["levels"]],
    )


def _refinement_size(tower, doc, ref_doc, **extra) -> dict:
    deepest = max([doc["working_level"]] + [e["level"] for f in ref_doc["families"] for e in f])
    return _sizes(
        level=doc["working_level"],
        stage_simplices=len(tower.stage(doc["working_level"]).simplices),
        elements=_count_elements(doc) + sum(len(f) for f in ref_doc["families"]),
        deepest_stage=deepest,
        **extra,
    )


def deep_group(rng, level, rejects, with_mu, tag, tower) -> list:
    """Jobs sharing one fresh space: construct and verify a refinement,
    verify corrupted copies of it, and optionally run mu_driver."""
    doc = cover_doc("triangle", level, blob_levels(tower, level, rng, 3, tag))
    levels = ck.cover_levels(doc)
    state: dict = {}

    def build(_):
        cs = _library_cover(doc)
        r = ostrand_refine(cs, 2)
        state["cs"] = cs
        return r, verify_c_refinement(r)

    def check_build(_, out):
        r, report = out
        ref_doc = jsonio.refinement_to_json(r)
        state["ref_doc"] = ref_doc
        problems = []
        if not report.ok:
            problems.append(f"verifier rejected a constructed refinement: {report.failure}")
        fault = ck.refinement_fault(tower, level, levels, ck.refinement_families(ref_doc))
        if fault:
            problems.append(f"constructed refinement fails brute force: {fault}")
        text = jsonio.dumps(ref_doc) + jsonio.dumps(jsonio.report_to_json(report))
        return problems, text.encode(), _refinement_size(tower, doc, ref_doc)

    jobs = [Job(f"construct+verify/L{level}", build, check_build)]

    for kind in rejects:
        spoil_rng = random.Random(rng.random())

        def prepare(kind=kind, spoil_rng=spoil_rng):
            bad = spoil_refinement(
                state["ref_doc"], kind, spoil_rng, SPACES["triangle"], tower, level, levels
            )
            space = state["cs"].space
            families = tuple(
                tuple((e["id"], star_set(space, e["level"], e["stars"])) for e in f)
                for f in bad["families"]
            )
            return bad, CRefinement(families, bad["kappa"], state["cs"])

        def run(arg):
            return verify_c_refinement(arg[1])

        def check(arg, report, kind=kind):
            bad = arg[0]
            problems = []
            if report.ok or report.failure != kind:
                problems.append(f"expected failure {kind}, got {report.failure}")
            fault = ck.refinement_fault(tower, level, levels, ck.refinement_families(bad))
            if not fault or fault[0] != kind:
                problems.append(f"brute force disagrees on the planted {kind}: {fault}")
            text = jsonio.dumps(jsonio.report_to_json(report))
            return problems, text.encode(), _refinement_size(tower, doc, bad)

        jobs.append(Job(f"reject-{kind}/L{level}", run, check, prepare))

    if with_mu:
        def run_mu(_):
            return mu_driver(state["cs"], n_plus_one(2))

        def check_mu(_, report):
            problems = [] if report.success else [f"mu_driver failed: {report.failure}"]
            text = jsonio.dumps(jsonio.mu_report_to_json(report))
            size = _sizes(
                level=level,
                stage_simplices=len(tower.stage(level).simplices),
                elements=_count_elements(doc),
                deepest_stage=report.canonical_level,
            )
            return problems, text.encode(), size

        jobs.append(Job(f"mu-driver/L{level}", run_mu, check_mu))
    return jobs


def deep_stream(seed: int):
    rng = random.Random(seed)
    tower = ck.tower_for(SPACES["triangle"])
    index = 0
    while True:
        groups = list(DEEP_ROUND)
        rng.shuffle(groups)
        jobs = []
        for level, rejects, with_mu in groups:
            jobs += deep_group(rng, level, rejects, with_mu, index, tower)
            index += 1
        yield jobs


# -- the `cli-mix` workload ---------------------------------------------------------

# One round of command-line jobs: (command, space, working level).
CLI_ROUND = (
    ("nerve", "edge", 2), ("nerve", "boundary", 1), ("nerve", "triangle", 1),
    ("delta", "edge", 3), ("delta", "boundary", 2), ("delta", "triangle", 1),
    ("canonical", "boundary", 2), ("canonical", "triangle", 2),
    ("canonical-nerve", "edge", 1), ("canonical-nerve", "triangle", 0),
    ("selection", "triangle", 2), ("selection-bad", "boundary", 3),
    ("construct", "boundary", 1), ("construct", "triangle", 1),
    ("verify", "triangle", 1), ("verify-bad", "edge", 3), ("verify-bad", "boundary", 2),
    ("extract", "triangle", 2), ("extract", "edge", 3),
    ("mu-driver", "edge", 2), ("mu-driver", "boundary", 1), ("mu-driver", "triangle", 1),
    ("complex", None, None), ("dim", None, None), ("selftest", None, None),
    ("malformed", "triangle", 1), ("malformed", "edge", 2),
)

SCHEMA_OF = {
    "nerve": "nerve", "delta": "nerve", "canonical": "canonical_map",
    "canonical-nerve": "canonical_map", "selection": "predicate_result",
    "selection-bad": "predicate_result", "construct": "refinement",
    "verify": "predicate_result", "verify-bad": "predicate_result",
    "extract": "refinement", "mu-driver": "mu_report", "complex": "complex",
}


class CliMix:
    """Writes each job's documents into a scratch directory and calls
    `polycover.cli.main` in-process with `--out`."""

    def __init__(self, workdir: Path, schemas):
        self.workdir = workdir
        self.schemas = schemas

    def path(self, index: int, name: str) -> str:
        return str(self.workdir / f"{index}-{name}.json")

    def write(self, index: int, name: str, doc) -> str:
        p = self.path(index, name)
        Path(p).write_text(json.dumps(doc), encoding="utf-8")
        return p

    def stream(self, seed: int):
        rng = random.Random(seed)
        index = 0
        while True:
            slots = list(CLI_ROUND)
            rng.shuffle(slots)
            jobs = []
            for command, space, level in slots:
                jobs.append(self.job(command, space, level, rng, index))
                index += 1
            yield jobs

    def job(self, command, space, level, rng, index) -> Job:
        tower = ck.tower_for(SPACES[space]) if space else None
        dim = tower.dim if tower else None
        out = self.path(index, "out")
        expect_code = 0
        doc = None

        if command in ("nerve", "delta"):
            nlev = rng.randint(2, 3)
            doc = cover_doc(space, level, blob_levels(tower, level, rng, nlev, index))
            kappa = rng.randint(1, nlev)
            argv = [command, "--cover", self.write(index, "cover", doc), "--kappa", str(kappa)]
            check = ("nerve", kappa, command == "delta")
        elif command in ("canonical", "canonical-nerve"):
            if command == "canonical":
                doc = cover_doc(space, level, disjoint_levels(tower, level, rng, index))
                kappa, target = len(doc["levels"]), "delta"
            else:
                doc = cover_doc(space, level, blob_levels(tower, level, rng, 2, index))
                kappa, target = 2, "nerve"
            argv = ["canonical", "--cover", self.write(index, "cover", doc),
                    "--kappa", str(kappa), "--target", target]
            check = ("canonical", kappa, target == "delta")
        elif command in ("selection", "selection-bad", "extract"):
            doc = cover_doc(space, level, disjoint_levels(tower, level, rng, index))
            kappa = len(doc["levels"])
            mdoc = delta_map_doc(tower, level, doc["levels"])
            if command == "selection-bad":
                mdoc = spoil_map(tower, level, doc["levels"], mdoc, rng)
                expect_code = 1
            cover_path = self.write(index, "cover", doc)
            map_path = self.write(index, "map", mdoc)
            if command == "extract":
                argv = ["crefine", "extract", "--cover", cover_path, "--kappa", str(kappa),
                        "--map", map_path]
                check = ("extract", kappa, mdoc)
            else:
                argv = ["selection", "--cover", cover_path, "--kappa", str(kappa),
                        "--map", map_path]
                check = ("selection", kappa, mdoc)
        elif command == "construct":
            doc = cover_doc(space, level, blob_levels(tower, level, rng, dim + 1, index))
            argv = ["crefine", "construct", "--cover", self.write(index, "cover", doc),
                    "--n", str(dim)]
            check = ("refinement", dim + 1)
        elif command in ("verify", "verify-bad"):
            doc = cover_doc(space, level, blob_levels(tower, level, rng, dim + 1, index))
            rdoc = barycenter_refinement(tower, level, dim + 1)
            kind = None
            if command == "verify-bad":
                kind = rng.choice(REJECT_KINDS)
                try:
                    rdoc = spoil_refinement(
                        rdoc, kind, rng, SPACES[space], tower, level, ck.cover_levels(doc)
                    )
                except ValueError:
                    kind = "overlap"
                    rdoc = spoil_refinement(
                        rdoc, kind, rng, SPACES[space], tower, level, ck.cover_levels(doc)
                    )
                expect_code = 1
            argv = ["crefine", "verify", "--cover", self.write(index, "cover", doc),
                    "--refinement", self.write(index, "refinement", rdoc)]
            check = ("verify", kind, rdoc)
        elif command == "mu-driver":
            doc = cover_doc(space, level, blob_levels(tower, level, rng, dim + 1, index))
            argv = ["mu-driver", "--mode", f"dim:{dim}", self.write(index, "cover", doc)]
            check = ("mu",)
        elif command in ("complex", "dim"):
            cdoc = random_complex_doc(rng)
            argv = [command, self.write(index, "complex", cdoc)]
            check = (command, cdoc)
        elif command == "selftest":
            argv = ["selftest"]
            check = ("selftest",)
        elif command == "malformed":
            doc = cover_doc(space, level, blob_levels(tower, level, rng, 2, index))
            bad = self.malform(doc, rng)
            argv = ["nerve", "--cover", self.write(index, "cover", bad)]
            expect_code = 2
            check = ("malformed",)
        else:
            raise ValueError(command)
        argv = argv + ["--out", out]
        def verdict(_, result):
            return self.verdict(command, tower, doc, check, expect_code, out, index, result)

        return Job(f"cli:{command}", lambda _: self.call(argv), verdict)

    @staticmethod
    def malform(doc: dict, rng) -> dict:
        bad = json.loads(json.dumps(doc))
        which = rng.randrange(4)
        element = rng.choice(bad["levels"][0])
        if which == 0:
            element["stars"] = element["stars"] + ["no-such-vertex"]
        elif which == 1:
            element["id"] = 7
        elif which == 2:
            element["stars"] = []
        else:
            del bad["levels"]
        return bad

    @staticmethod
    def call(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = polycover.cli.main(argv)
        return code, err.getvalue()

    def verdict(self, command, tower, doc, check, expect_code, out, index, result):
        code, err = result
        problems = []
        if code != expect_code:
            problems.append(f"exit code {code}, expected {expect_code}: {err.strip()[:200]}")
        out_path = Path(out)
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        payload = None
        if command in SCHEMA_OF or command == "dim":
            try:
                payload = json.loads(text)
            except ValueError:
                problems.append("output is not JSON")
        if payload is not None and command in SCHEMA_OF:
            problems.extend(self.schemas.errors(SCHEMA_OF[command], payload))
        if payload is not None or command in ("selftest", "malformed"):
            problems.extend(self.known_answer(tower, doc, check, payload, text, err))
        for p in self.workdir.glob(f"{index}-*.json"):
            p.unlink()
        size = {}
        if doc is not None:
            size = _sizes(
                level=doc["working_level"],
                stage_simplices=len(tower.stage(doc["working_level"]).simplices),
                elements=_count_elements(doc),
                deepest_stage=_deepest(doc, payload),
            )
        return problems, f"{code}\n{text}{err}".encode(), size

    @staticmethod
    def known_answer(tower, doc, check, payload, text, err) -> list:
        what = check[0]
        level = doc["working_level"] if doc else None
        levels = ck.cover_levels(doc) if doc else None
        if what == "nerve":
            _, kappa, delta = check
            want = ck.nerve_simplices(tower, level, levels, kappa, delta)
            got = ck.nerve_from_json(payload)
            verts = {(eid, n) for eid, n in payload["vertices"]}
            if got != want or verts != {v for s in want for v in s}:
                return [f"nerve differs from brute force ({len(got)} vs {len(want)} simplices)"]
            return []
        if what == "canonical":
            _, kappa, delta = check
            fault = ck.map_fault(tower, level, levels, kappa, payload)
            if fault is None:
                target = ck.nerve_simplices(tower, level, levels, kappa, delta)
                fault = ck.map_image_fault(tower, payload, target)
            return [f"canonical map: {fault}"] if fault else []
        if what == "selection":
            _, kappa, mdoc = check
            want = ck.map_fault(tower, level, levels, kappa, mdoc) is None
            return [] if payload["ok"] == want else [f"selection verdict {payload['ok']}, brute force {want}"]
        if what == "extract":
            _, kappa, mdoc = check
            fibers: dict = {}
            for v, (eid, n) in mdoc["vertex_images"].items():
                fibers.setdefault((eid, n), set()).add(v)
            got = {
                (e["id"], n): set(e["stars"])
                for n, fam in enumerate(payload["families"]) for e in fam
            }
            problems = [] if got == fibers else ["extracted families are not the map's fibers"]
            fault = ck.refinement_fault(tower, level, levels, ck.refinement_families(payload))
            return problems + ([f"extracted refinement fails brute force: {fault}"] if fault else [])
        if what == "refinement":
            fault = ck.refinement_fault(tower, level, levels, ck.refinement_families(payload))
            if payload["kappa"] != check[1]:
                fault = fault or ("kappa", payload["kappa"])
            return [f"constructed refinement fails brute force: {fault}"] if fault else []
        if what == "verify":
            _, kind, rdoc = check
            fault = ck.refinement_fault(tower, level, levels, ck.refinement_families(rdoc))
            want = None if fault is None else fault[0]
            if want != kind:
                return [f"brute force finds {want} in a certificate planted with {kind}"]
            if payload["ok"] != (kind is None) or payload.get("failure") != kind:
                return [f"verifier says {payload.get('failure')}, expected {kind}"]
            return []
        if what == "mu":
            return [] if payload["success"] else [f"mu_driver failed: {payload['failure']}"]
        if what == "complex":
            want = ck.maximal_of(check[1]["maximal_simplices"])
            return [] if ck.maximal_of(payload["maximal_simplices"]) == want else ["closure differs"]
        if what == "dim":
            want = max(len(set(s)) for s in check[1]["maximal_simplices"]) - 1
            return [] if payload.get("dim") == want else [f"dim {payload.get('dim')}, expected {want}"]
        if what == "selftest":
            rows = text.splitlines()[1:]
            return [] if rows and all("  pass  " in r for r in rows) else ["selftest row failed"]
        if what == "malformed":
            return [] if "$." in err else [f"no path in the schema message: {err.strip()[:120]}"]
        raise ValueError(what)


def _deepest(doc, payload) -> int:
    deepest = doc["working_level"]
    if isinstance(payload, dict):
        if "subdivision_level" in payload:
            deepest = max(deepest, payload["subdivision_level"])
        for fam in payload.get("families", []):
            for e in fam:
                deepest = max(deepest, e["level"])
    return deepest


# -- registry -------------------------------------------------------------------------

def stream(workload: str, seed: int, workdir: Path, schemas):
    if workload == "search":
        return search_stream(seed)
    if workload == "deep-verify":
        return deep_stream(seed)
    if workload == "cli-mix":
        return CliMix(workdir, schemas).stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, workdir: Path, schemas) -> list:
    """The fixed jobs run before timing starts (same on every run)."""
    if workload == "search":
        tower = ck.tower_for(SPACES["triangle"])
        strata = search_strata()
        return [_search_cover_job(strata[s][0]["groups"], f"w{s}", tower) for s in (0, 1)]
    if workload == "deep-verify":
        return deep_group(
            random.Random(WARMUP_SEED), 1, ("overlap", "uncovered"), True, "w",
            ck.tower_for(SPACES["triangle"]),
        )
    return next(CliMix(workdir, schemas).stream(WARMUP_SEED))
