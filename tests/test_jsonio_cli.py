"""Serialization round trips, schema validation, and CLI behaviour."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polycover

from polycover import (
    build_canonical,
    cover_sequence,
    nerve,
    ostrand_refine,
    star_set,
    validate_complex,
    verify_c_refinement,
)
from polycover import jsonio
from polycover.cli import main
from polycover.covers import FULL_NERVE
from polycover.errors import InvalidArgument, PolycoverError, SchemaError
from polycover.fixtures import edge_space, rem_cover, tri_space, vertex_star_cover
from polycover.realization import PolyhedralSpace
from polycover.selections import carrier_tables
from polycover.complexes import coned

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def fs(*vs):
    return frozenset(vs)


class TestRoundTrips:
    def test_complex(self):
        c = validate_complex([{"a", "b"}, {"b", "c", "d"}])
        data = jsonio.complex_to_json(c)
        assert jsonio.complex_from_json(data) == c

    def test_cover(self):
        cs = rem_cover()
        data = jsonio.cover_to_json(cs)
        again = jsonio.cover_from_json(data)
        assert again.working_level == cs.working_level
        assert [[eid for eid, _ in fam] for fam in again.levels] == [
            [eid for eid, _ in fam] for fam in cs.levels
        ]
        assert nerve(again, 3) == nerve(cs, 3)

    def test_canonical_map(self):
        cs = rem_cover()
        f = build_canonical(cs, 2, "full_nerve")
        data = jsonio.canonical_map_to_json(f)
        again = jsonio.canonical_map_from_json(cs, data, kappa=2)
        assert again.map.vertex_images == f.map.vertex_images
        assert again.subdivision_level == f.subdivision_level

    def test_refinement(self):
        cov = vertex_star_cover(tri_space(), 3)
        r = ostrand_refine(cov, 2)
        data = jsonio.refinement_to_json(r)
        again = jsonio.refinement_from_json(cov, data)
        assert verify_c_refinement(again).ok
        assert jsonio.refinement_to_json(again) == data

    def test_tables(self):
        e = edge_space()
        target = coned(validate_complex([{"t:a", "t:b"}]), "z")
        named = {
            fs("a"): validate_complex([{"t:a"}]),
            fs("b"): validate_complex([{"t:b"}]),
            fs("a", "b"): validate_complex([{"t:a", "t:b"}]),
        }
        table = {tau: coned(value, "z") for tau, value in named.items()}
        phi = carrier_tables(e, 0, target, [table, table], "z")
        data = jsonio.tables_to_json(phi)
        again = jsonio.tables_from_json(e, data)
        assert again.tables == phi.tables
        assert again.cone_witness == "z"

    def test_dumps_is_deterministic(self):
        cs = rem_cover()
        a = jsonio.dumps(jsonio.nerve_to_json(nerve(cs, 3), FULL_NERVE))
        b = jsonio.dumps(jsonio.nerve_to_json(nerve(rem_cover(), 3), FULL_NERVE))
        assert a == b
        assert '"schema_version": 1' in a


def test_a_star_set_element_reads_its_stage_twice(monkeypatch):
    """Reading a refinement looks up each element's stage once for its
    level check and once per label in `vertex_at`: 7 one-label elements
    make 14 `PolyhedralSpace.stage` calls, with no third lookup in
    `star_set`."""
    cs = jsonio.cover_from_json(json.loads((GOLDEN_INPUTS / "tri3.cover.json").read_text()))
    doc = json.loads((GOLDEN_INPUTS / "tri3.refinement.json").read_text())
    stage = PolyhedralSpace.stage
    levels = []

    def spy(space, level):
        levels.append(level)
        return stage(space, level)

    monkeypatch.setattr(PolyhedralSpace, "stage", spy)
    r = jsonio.refinement_from_json(cs, doc)
    assert sum(map(len, r.families)) == 7
    assert all(len(star.core_vertices) == 1 for family in r.families for _, star in family)
    assert len(levels) == 14


class TestSchemaErrors:
    def test_bad_complex(self):
        with pytest.raises(SchemaError) as err:
            jsonio.complex_from_json({"maximal_simplices": [[]]})
        assert "maximal_simplices[0]" in err.value.path

    def test_unknown_star_label(self):
        doc = {"space": {"maximal_simplices": [["a", "b"]]}, "working_level": 0,
               "levels": [[{"id": "A", "stars": ["a", "zz"]}]]}
        with pytest.raises(SchemaError) as err:
            jsonio.cover_from_json(doc)
        assert (err.value.path, err.value.reason) == (
            "$.levels[0][0].stars", "no vertex labelled 'zz' at level 0"
        )

    @pytest.mark.parametrize(
        "read, doc, path",
        [
            (jsonio.complex_from_json, {"maximal_simplices": [["", "a"]]},
             "$.maximal_simplices[0][0]"),
            (jsonio.cover_from_json,
             {"space": {"maximal_simplices": [["a"]]}, "working_level": 0,
              "levels": [[{"id": "", "stars": ["a"]}]]},
             "$.levels[0][0].id"),
            (jsonio.cover_from_json,
             {"space": {"maximal_simplices": [["a"]]}, "working_level": 0,
              "levels": [[{"id": "A", "stars": [""]}]]},
             "$.levels[0][0].stars[0]"),
        ],
    )
    def test_empty_labels_and_ids_are_refused(self, read, doc, path):
        with pytest.raises(SchemaError) as err:
            read(doc)
        assert (err.value.path, err.value.reason) == (path, "expected a nonempty string")

    def test_image_keys_must_be_source_vertices(self):
        doc = json.loads((GOLDEN_INPUTS / "cone.json").read_text())
        doc["vertex_images"][""] = "yb"
        with pytest.raises(SchemaError) as err:
            jsonio.cone_input_from_json(doc)
        assert (err.value.path, err.value.reason) == (
            "$.vertex_images['']", "names no source vertex"
        )

    @pytest.mark.parametrize("pair", [["a", 1], ["zz", 0]])
    def test_map_rows_must_name_cover_elements(self, pair):
        space = edge_space()
        cs = cover_sequence(space, [[("a", star_set(space, 0, ["a"])),
                                     ("b", star_set(space, 0, ["b"]))]])
        target = validate_complex([["t"]])
        rows = [{"vertex": ["a", 0], "image": "t"}, {"vertex": pair, "image": "t"}]
        with pytest.raises(SchemaError) as err:
            jsonio.delta_map_from_json(cs, target, {"vertex_images": rows})
        assert (err.value.path, err.value.reason) == (
            "$.vertex_images[1].vertex", "names no cover element"
        )

    def test_missing_field_path(self):
        with pytest.raises(SchemaError) as err:
            jsonio.cover_from_json({"space": {"maximal_simplices": [["a"]]}})
        assert "working_level" in err.value.path

    def test_internal_errors_are_not_schema_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal bug")

        monkeypatch.setattr(jsonio, "cover_sequence", broken)
        monkeypatch.setattr(jsonio, "carrier_tables", broken)
        with pytest.raises(RuntimeError, match="internal bug"):
            jsonio.cover_from_json(jsonio.cover_to_json(rem_cover()))
        e = edge_space()
        target = coned(validate_complex([{"t:a", "t:b"}]), "z")
        table = {tau: target for tau in e.stage_complex(0).simplices}
        doc = jsonio.tables_to_json(carrier_tables(e, 0, target, [table]))
        with pytest.raises(RuntimeError, match="internal bug"):
            jsonio.tables_from_json(e, doc)

    @pytest.mark.parametrize(
        "read",
        [
            lambda: jsonio.cover_from_json({
                "space": {"maximal_simplices": [["a"]]}, "working_level": -1,
                "levels": [[{"id": "A", "stars": ["a"]}]],
            }),
            lambda: jsonio.refinement_from_json(rem_cover(), {
                "kappa": 1, "families": [[{"id": "A", "level": -1, "stars": ["a"]}]],
            }),
        ],
        ids=["star_set", "refinement"],
    )
    def test_a_negative_level_is_refused_as_a_level(self, read):
        """Not as an unknown label: the level is checked before any label.
        The star-set reader reads a cover's elements at its working level
        and a refinement's at their own."""
        with pytest.raises(InvalidArgument, match="^stage levels are nonnegative$"):
            read()

    def test_internal_value_errors_are_not_schema_errors(self, monkeypatch):
        """Each catch converts only the refusal it reads, so a plain
        ValueError from inside the library surfaces as itself."""
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        e = edge_space()
        target = coned(validate_complex([{"t:a", "t:b"}]), "z")
        table = {tau: target for tau in e.stage_complex(0).simplices}
        tables = jsonio.tables_to_json(carrier_tables(e, 0, target, [table]))
        cs = rem_cover()
        cover = jsonio.cover_to_json(cs)
        image = {"subdivision_level": 1, "target_kind": "full_nerve",
                 "vertex_images": {"b(a)": ["P", 0]}}
        reads = [
            (jsonio, "cover_sequence", lambda: jsonio.cover_from_json(cover)),
            (jsonio, "carrier_tables", lambda: jsonio.tables_from_json(e, tables)),
            (jsonio, "star_set", lambda: jsonio.cover_from_json(cover)),
            (PolyhedralSpace, "vertex_at", lambda: jsonio.canonical_map_from_json(cs, image)),
        ]
        for owner, name, read in reads:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, broken)
                with pytest.raises(ValueError, match="internal bug") as err:
                    read()
            assert not isinstance(err.value, PolycoverError), name


@pytest.fixture()
def cover_file(tmp_path):
    path = tmp_path / "rem.json"
    path.write_text(json.dumps(jsonio.cover_to_json(rem_cover())))
    return str(path)


@pytest.fixture()
def tri_cover_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(jsonio.cover_to_json(vertex_star_cover(tri_space(), 3))))
    return str(path)


class TestCli:
    def test_complex_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        src.write_text(json.dumps({"maximal_simplices": [["a", "b", "c"]]}))
        assert main(["complex", str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["schema_version"] == 1
        assert out["maximal_simplices"] == [["a", "b", "c"]]

    def test_complex_dot(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        src.write_text(json.dumps({"maximal_simplices": [["a", "b"]]}))
        assert main(["complex", str(src), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert '"a" -- "b";' in out
        assert "0-simplices: 2" in out

    def test_delta_dot_deterministic(self, cover_file, capsys):
        assert main(["delta", "--cover", cover_file, "--kappa", "2", "--format", "dot"]) == 0
        first = capsys.readouterr().out
        assert main(["delta", "--cover", cover_file, "--kappa", "2", "--format", "dot"]) == 0
        assert capsys.readouterr().out == first
        assert '"P@0" -- "Q@1";' in first

    def test_nerve_json(self, cover_file, capsys):
        assert main(["nerve", "--cover", cover_file, "--kappa", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert ["P", 0] in out["vertices"]
        assert [["P", 0], ["Q", 1]] in out["simplices"]

    def test_unindexed_delta(self, cover_file, capsys):
        assert main(["delta", "--cover", cover_file, "--kappa", "2", "--unindexed"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert ["P@0", "Q@1"] in out["simplices"]

    def test_dim(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        src.write_text(json.dumps({"maximal_simplices": [["a", "b", "c"]]}))
        assert main(["dim", str(src)]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 2

    def test_canonical_and_selection_roundtrip(self, cover_file, tmp_path, capsys):
        assert main(
            ["canonical", "--cover", cover_file, "--kappa", "2", "--target", "nerve"]
        ) == 0
        map_text = capsys.readouterr().out
        map_file = tmp_path / "map.json"
        map_file.write_text(map_text)
        code = main(
            [
                "selection",
                "--cover",
                cover_file,
                "--kappa",
                "2",
                "--map",
                str(map_file),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"] is True and out["witness"] is None

    def test_selection_failure_exit_one(self, cover_file, tmp_path, capsys):
        cs = rem_cover()
        bad = {
            "subdivision_level": 1,
            "target_kind": "full_nerve",
            "vertex_images": {
                "b(a)": ["Q'", 0],
                "b(a,b)": ["Q'", 0],
                "b(b)": ["Q'", 0],
            },
        }
        map_file = tmp_path / "bad.json"
        map_file.write_text(json.dumps(bad))
        code = main(
            ["selection", "--cover", cover_file, "--kappa", "2", "--map", str(map_file)]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["ok"] is False and out["witness"]

    def test_crefine_search_exhaustion_exit_three(self, tmp_path, capsys):
        path = tmp_path / "tri2.json"
        path.write_text(json.dumps(jsonio.cover_to_json(vertex_star_cover(tri_space(), 2))))
        code = main(
            ["crefine", "search", "--cover", str(path), "--kappa", "2", "--max-level", "1"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["status"] == "exhausted"
        assert len(out["audits"]) == 2

    def test_overlap_witness_ignores_hash_seed(self):
        # The witness is the least overlapping pair in family order: a, b and
        # c each overlap X and are pairwise disjoint, so the pair is (a, X).
        inputs = Path(__file__).parent / "golden" / "inputs"
        argv = [
            sys.executable,
            "-m",
            "polycover.cli",
            "crefine",
            "verify",
            "--cover",
            str(inputs / "tri3.cover.json"),
            "--refinement",
            str(inputs / "overlap.refinement.json"),
        ]
        src = str(Path(polycover.__file__).resolve().parent.parent)
        runs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            runs.add((done.returncode, done.stdout, done.stderr))
        assert len(runs) == 1
        code, out, err = runs.pop()
        assert (code, err) == (1, "")
        assert json.loads(out)["witness"] == {"level": 0, "elements": ["a", "X"]}

    def test_crefine_construct_verify_pipeline(self, tri_cover_file, tmp_path, capsys):
        assert main(
            ["crefine", "construct", "--cover", tri_cover_file, "--n", "2"]
        ) == 0
        refinement = capsys.readouterr().out
        rpath = tmp_path / "r.json"
        rpath.write_text(refinement)
        assert main(
            ["crefine", "verify", "--cover", tri_cover_file, "--refinement", str(rpath)]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_mu_driver_exit_codes(self, tri_cover_file, tmp_path, capsys):
        assert main(["mu-driver", "--mode", "dim:2", tri_cover_file]) == 0
        ok = json.loads(capsys.readouterr().out)
        assert ok["success"] is True and ok["kappa"] == 3
        path = tmp_path / "tri2.json"
        path.write_text(json.dumps(jsonio.cover_to_json(vertex_star_cover(tri_space(), 2))))
        code = main(["mu-driver", "--mode", "dim:1", "--max-level", "1", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 3 and out["success"] is False

    def test_cone_extend(self, tmp_path, capsys):
        doc = {
            "source": {"maximal_simplices": [["a"], ["b"]]},
            "target": {"maximal_simplices": [["ya", "yb", "q"]]},
            "vertex_images": {"a": "ya", "b": "yb"},
            "new_vertex": "v",
            "witness_vertex": "q",
            "chain": [
                {"maximal_simplices": [["ya"], ["yb"]]},
                {"maximal_simplices": [["ya", "yb", "q"]]},
            ],
        }
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(doc))
        assert main(["cone-extend", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vertex_images"]["v"] == "q"

    def test_cone_extend_witness_failure_exit_one(self, tmp_path, capsys):
        doc = {
            "source": {"maximal_simplices": [["a"], ["b"]]},
            "target": {"maximal_simplices": [["ya", "yb", "q"]]},
            "vertex_images": {"a": "ya", "b": "yb"},
            "new_vertex": "v",
            "witness_vertex": "q",
            "chain": [
                {"maximal_simplices": [["ya"], ["yb"]]},
                {"maximal_simplices": [["ya"], ["yb"], ["q"]]},
            ],
        }
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(doc))
        code = main(["cone-extend", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["ok"] is False

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"maximal_simplices": "nope"}))
        assert main(["complex", str(path)]) == 2
        err = capsys.readouterr().err
        assert "maximal_simplices" in err

    def test_oversized_stage_exit_three(self, tmp_path, capsys):
        doc = {
            "space": {"maximal_simplices": [list("abcdef")]},
            "working_level": 2,
            "levels": [[{"id": "A", "stars": ["b(b(a))"]}]],
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main(["nerve", "--cover", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "level budget exhausted: stage 2 would have 5016249 simplices, "
            "over the limit of 250000\n"
        )

    # The search recurses once per assigned vertex.  Which level outgrows
    # the stack depends on the caller's depth, so the level is not pinned.
    DEEP = r"the level-\d+ search is too deep for the stack"

    def test_deep_search_exit_three(self, capsys):
        cover = str(GOLDEN_INPUTS / "tri3.cover.json")
        code = main(["crefine", "search", "--cover", cover, "--kappa", "1", "--max-level", "6"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert re.fullmatch(f"level budget exhausted: {self.DEEP}\n", captured.err)

    def test_deep_search_in_mu_driver_prints_the_report(self, capsys):
        code = main(["mu-driver", str(GOLDEN_INPUTS / "clash.cover.json"), "--mode", "dim:0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3 and out["success"] is False
        assert re.fullmatch(self.DEEP, out["failure"])

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"maximal_simplices": [["a", "b"]]}))
        )
        assert main(["dim", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 1

    def test_out_flag_writes_file(self, cover_file, tmp_path, capsys):
        out_path = tmp_path / "delta.json"
        assert main(
            ["delta", "--cover", cover_file, "--kappa", "2", "--out", str(out_path)]
        ) == 0
        assert capsys.readouterr().out == ""
        data = json.loads(out_path.read_text())
        assert data["kind"] == "delta"

    def test_crefine_extract(self, tmp_path, capsys):
        e = edge_space()
        fine = cover_sequence(
            e,
            [
                [("P'", star_set(e, 1, ["b(a)"]))],
                [("Q", star_set(e, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        fcov = tmp_path / "fine.json"
        fcov.write_text(json.dumps(jsonio.cover_to_json(fine)))
        assert main(["canonical", "--cover", str(fcov), "--kappa", "2"]) == 0
        map_file = tmp_path / "map.json"
        map_file.write_text(capsys.readouterr().out)
        assert main(
            [
                "crefine",
                "extract",
                "--cover",
                str(fcov),
                "--kappa",
                "2",
                "--map",
                str(map_file),
            ]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kappa"] == 2
        assert out["families"][0] == [{"id": "P'", "level": 1, "stars": ["b(a)"]}]

    def test_selection_skeletal_predicate(self, tmp_path, capsys):
        from polycover import bootstrap_skeletal_selection

        e = edge_space()
        target = coned(validate_complex([{"t:a", "t:b"}]), "z")
        named = {
            fs("a"): validate_complex([{"t:a"}]),
            fs("b"): validate_complex([{"t:b"}]),
            fs("a", "b"): validate_complex([{"t:a", "t:b"}]),
        }
        table = {tau: coned(value, "z") for tau, value in named.items()}
        phi = carrier_tables(e, 0, target, [table], "z")
        cs, f0 = bootstrap_skeletal_selection(phi)
        (tmp_path / "phi.json").write_text(json.dumps(jsonio.tables_to_json(phi)))
        (tmp_path / "cover.json").write_text(json.dumps(jsonio.cover_to_json(cs)))
        (tmp_path / "map.json").write_text(json.dumps(jsonio.delta_map_to_json(f0)))
        code = main(
            [
                "selection",
                "--cover",
                str(tmp_path / "cover.json"),
                "--map",
                str(tmp_path / "map.json"),
                "--predicate",
                "skeletal",
                "--tables",
                str(tmp_path / "phi.json"),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"] is True

    def test_main_builds_one_parser(self, tmp_path, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        src = tmp_path / "c.json"
        src.write_text(json.dumps({"maximal_simplices": [["a", "b"]]}))
        assert main(["dim", str(src)]) == main(["complex", str(src)]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out


def _cli_refusal(argv, capsys, monkeypatch) -> tuple:
    """Exit code, stdout and stderr of a CLI call on the golden inputs,
    including calls that argparse ends with SystemExit."""
    monkeypatch.chdir(GOLDEN_INPUTS)
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliRefusals:
    """Refusals of the command line itself, each with exit code 2."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["complex", "missing.json"],
             "schema error: input: cannot read 'missing.json': No such file or directory"),
            (["nerve", "--cover", "rem.cover.json", "--unindexed"],
             "schema error: --unindexed: only the delta command supports it"),
            (["delta", "--cover", "rem.cover.json", "--unindexed", "--format", "dot"],
             "schema error: --format: unindexed output is JSON only"),
            (["selection", "--cover", "skeletal.cover.json", "--map", "skeletal.map.json",
              "--predicate", "skeletal"],
             "schema error: --tables: the skeletal predicate needs carrier tables"),
        ],
    )
    def test_schema_refusal_is_one_stderr_line(self, argv, line, capsys, monkeypatch):
        assert _cli_refusal(argv, capsys, monkeypatch) == (2, "", line + "\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["nerve", "--cover", "rem.cover.json", "--kappa", "x"],
             "polycover nerve: error: argument --kappa: kappa is an integer or 'omega'"),
            (["mu-driver", "--mode", "dim:x", "rem.cover.json"],
             "polycover mu-driver: error: argument --mode/--mu: dimension mode is dim:<n>"),
            (["mu-driver", "--mode", "dim:-1", "rem.cover.json"],
             "polycover mu-driver: error: argument --mode/--mu: dimension mode is dim:<n>"),
            (["mu-driver", "--mode", "z", "rem.cover.json"],
             "polycover mu-driver: error: argument --mode/--mu: "
             "mode is one of c, finite-c, dim:<n>"),
        ],
    )
    def test_bad_argument_ends_usage_with_one_line(self, argv, line, capsys, monkeypatch):
        code, out, err = _cli_refusal(argv, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith("usage: polycover ")
        assert err.splitlines()[-1] == line
