"""Tests of the benchmark's own checker, generators and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker as ck  # noqa: E402
import workloads as wl  # noqa: E402
from polycover import jsonio  # noqa: E402
from polycover.complexes import vlabel  # noqa: E402
from polycover.dimension import (  # noqa: E402
    CRefinement,
    SearchResult,
    ostrand_refine,
    search_c_refinement,
    verify_c_refinement,
)

TRI = wl.SPACES["triangle"]


@pytest.fixture(scope="module")
def schemas():
    return ck.Schemas(HERE.parent / "schemas")


def blob_cover(level, seed):
    tower = ck.tower_for(TRI)
    levels = wl.blob_levels(tower, level, random.Random(seed), 3, "t")
    return tower, wl.cover_doc("triangle", level, levels)


def test_tower_matches_program_stage_sizes():
    tower = ck.tower_for(TRI)
    assert [len(tower.stage(m).simplices) for m in range(4)] == [7, 25, 121, 673]
    cs = wl._library_cover(blob_cover(2, 0)[1])
    assert {vlabel(v) for v in cs.working_complex().vertices} == tower.stage(2).vertices


@pytest.mark.parametrize("kind", wl.REJECT_KINDS)
def test_planted_faults_match_verifier(kind):
    tower, doc = blob_cover(2, 3)
    good = wl.barycenter_refinement(tower, 2, 3)
    levels = ck.cover_levels(doc)
    assert ck.refinement_fault(tower, 2, levels, ck.refinement_families(good)) is None
    bad = wl.spoil_refinement(good, kind, random.Random(1), TRI, tower, 2, levels)
    cs = wl._library_cover(doc)
    r = jsonio.refinement_from_json(cs, bad)
    report = verify_c_refinement(r)
    assert (report.ok, report.failure) == (False, kind)


def test_checker_catches_corrupted_certificate_reported_valid():
    """A search that returns `found` with an overlapping certificate fails."""
    tower = ck.tower_for(TRI)
    doc = wl.search_cover_doc(wl.search_strata()[0][0]["groups"], "t")
    cs = wl._library_cover(doc)
    valid = ostrand_refine(cs, 2)
    fams = list(valid.families)
    fams[1] = fams[1] + ((fams[1][0][0] + "'", fams[1][0][1]),)
    corrupted = CRefinement(tuple(fams), 3, cs)
    exhausted = search_c_refinement(cs, 2, 2)
    check = wl._search_check(tower, doc)

    problems, _, _ = check(None, (exhausted, SearchResult("found", 2, valid, ())))
    assert problems == []
    problems, _, _ = check(None, (exhausted, SearchResult("found", 2, corrupted, ())))
    assert any("fails brute force" in p and "overlap" in p for p in problems)


def test_checker_catches_nerve_missing_a_simplex(tmp_path, schemas):
    mix = wl.CliMix(tmp_path, schemas)
    job = mix.job("nerve", "boundary", 2, random.Random(2), 0)
    result = job.run(None)
    out = tmp_path / "0-out.json"
    payload = out.read_text(encoding="utf-8")
    problems, _, _ = job.check(None, result)
    assert problems == []

    doc = json.loads(payload)
    largest = max(doc["simplices"], key=len)
    doc["simplices"].remove(largest)
    out.write_text(json.dumps(doc), encoding="utf-8")
    problems, _, _ = job.check(None, result)
    assert any("nerve differs from brute force" in p for p in problems)


def test_schema_registry_resolves_refs(schemas):
    tower, doc = blob_cover(1, 1)
    result = search_c_refinement(wl._library_cover(doc), 3, 2)
    payload = json.loads(jsonio.dumps(jsonio.search_to_json(result)))
    assert schemas.errors("search_result", payload) == []
    payload["refinement"]["families"][0][0]["level"] = -1
    assert schemas.errors("search_result", payload)


@pytest.mark.parametrize("workload", ["search", "deep-verify", "cli-mix"])
def test_streams_are_seeded(tmp_path, schemas, workload):
    def kinds(seed):
        stream = wl.stream(workload, seed, tmp_path, schemas)
        return [job.kind for job in next(stream)]

    assert kinds(4) == kinds(4)
    assert sorted(kinds(4)) == sorted(kinds(5))


def test_tracer_spans_and_restores(tmp_path, schemas):
    from tracer import Tracer
    import polycover.realization as realization
    import polycover.dimension as dimension

    original = realization.star_subset
    tracer = Tracer()
    tracer.install([wl])
    try:
        assert dimension.star_subset is not original
        assert realization.star_subset is not original
        tracer.active = True
        job = wl.deep_group(random.Random(0), 1, ("overlap",), False, "t", ck.tower_for(TRI))[0]
        job.run(None)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert realization.star_subset is original and dimension.star_subset is original
    metrics = tracer.metrics(sum(tracer.self_s.values()))
    assert metrics["dimension.ostrand_refine.self_s"] > 0
    assert metrics["realization.star_relation.calls"] > 0
    assert abs(metrics["trace.self_coverage"] - 1) < 1e-9
