"""Seeded robustness of the command line against broken inputs.

Every golden case is re-run with each of its input documents broken in one
place: a required key dropped, a value of the wrong JSON type, a level made
negative, or a vertex reference replaced by an unknown label.  Cases that
take a cover prefix length also run with `--kappa 0` and with `--kappa` one
past the cover's levels (`crefine search` pads the cover, so only 0 there).
`cli.main` must never raise, must exit 1, 2 or 3, and may write to stderr
only one of the lines documented in `polycover.cli`.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from test_golden import CASES, INPUTS, run_case

SITES_PER_KIND = 2

# Keys every reader of the document requires.
REQUIRED = {
    "chain", "families", "id", "image", "kappa", "level", "levels",
    "maximal_simplices", "new_vertex", "source", "space", "stars",
    "subdivision_level", "tables", "target", "vertex", "vertex_images",
    "witness_vertex", "working_level",
}

DOCUMENTED_STDERR = re.compile(
    r"(schema error: \S+: .*|input error \(\w+\): .*|level budget exhausted: .*)\n"
)

# Commands whose --kappa is a prefix length of the cover.  The skeletal
# predicate reads every level and refuses --kappa.
PREFIX_KAPPA = {"nerve", "delta", "canonical", "selection", "extract"}


def sites(doc, path=()):
    """(path, key, value) of every value below the root: dict entries and
    list items alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path, key, value
        if isinstance(value, (dict, list)):
            yield from sites(value, path + (key,))


def label_sites(doc):
    """Values and keys that name a vertex defined elsewhere: star labels,
    image labels, cone witnesses and the vertex keys of image objects."""
    for path, key, value in sites(doc):
        parent = path[-1] if path else None
        if parent == "stars" or key in ("image", "witness_vertex", "cone_witness"):
            yield path, key, None
        elif key == "vertex_images" and isinstance(value, dict):
            for name in value:
                yield path + (key,), name, "key"


def wrong_type(value):
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return "x"
    if isinstance(value, dict):
        return []
    return "7"


def mutants(doc, rng):
    """(description, mutated document) pairs: up to SITES_PER_KIND of each
    mutation kind, at seeded sites."""
    everything = list(sites(doc))
    kinds = {
        "drop": [s for s in everything if s[1] in REQUIRED],
        "type": everything,
        "negative": [s for s in everything if type(s[2]) is int],
        "label": list(label_sites(doc)),
    }
    for kind, found in kinds.items():
        for path, key, value in rng.sample(found, min(SITES_PER_KIND, len(found))):
            copy = json.loads(json.dumps(doc))
            node = copy
            for step in path:
                node = node[step]
            if kind == "drop":
                del node[key]
            elif kind == "type":
                node[key] = wrong_type(value)
            elif kind == "negative":
                node[key] = -1 - value
            elif value == "key":
                node["zz"] = node.pop(key)
            else:
                node[key] = "zz"
            yield f"{kind} {'.'.join(map(str, path + (key,)))}", copy


def kappa_variants(argv):
    """argv with --kappa 0 and one past the cover's levels, where --kappa
    is a prefix length."""
    command = argv[1] if argv[0] == "crefine" else argv[0]
    if command not in PREFIX_KAPPA | {"search"}:
        return []
    base = list(argv)
    if "--kappa" in base:
        at = base.index("--kappa")
        del base[at : at + 2]
    values = [0]
    if command != "search":
        cover = json.loads((INPUTS / argv[argv.index("--cover") + 1]).read_text())
        values.append(len(cover["levels"]) + 1)
    return [base + ["--kappa", str(k)] for k in values]


def assert_survives(argv, what):
    try:
        code, _, err = run_case(argv)
    except Exception as exc:  # name the broken input, not just the traceback
        pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
    assert code in (1, 2, 3), f"{what}: exit {code}"
    # Exit 2 always explains itself; exit 1 puts its witness on stdout.
    assert (code, err) != (2, "") and (code, bool(err)) != (1, True), what
    assert err == "" or DOCUMENTED_STDERR.fullmatch(err), f"{what}: {err!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_survives_broken_inputs(name, tmp_path):
    argv = CASES[name][0]
    for at, token in enumerate(argv):
        if not token.endswith(".json"):
            continue
        doc = json.loads((INPUTS / token).read_text(encoding="utf-8"))
        rng = random.Random(f"{name}:{token}")
        for what, broken in mutants(doc, rng):
            path = tmp_path / token
            path.write_text(json.dumps(broken), encoding="utf-8")
            mutated = list(argv)
            mutated[at] = str(path)
            assert_survives(mutated, f"{name} {token} {what}")
    for mutated in kappa_variants(argv):
        assert_survives(mutated, " ".join(mutated))


def test_chain_member_outside_the_target_is_an_input_error(tmp_path):
    doc = json.loads((INPUTS / "cone.json").read_text(encoding="utf-8"))
    doc["chain"][0]["maximal_simplices"].append(["zz"])
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_case(["cone-extend", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "input error (InvalidArgument): chain member 0 is not a subcomplex of the target\n"
    )
