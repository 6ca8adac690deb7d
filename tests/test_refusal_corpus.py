"""Refusals of mutated golden input documents, pinned word for word.

Every JSON document under `tests/golden/inputs` is read by the reader the
command line uses for it, after one of its fields is set to null, "", [],
{}, -1 or true, or deleted.  About twenty such mutations per document are
picked by a fixed seed, independent of the Python version and the hash
seed.  For each, the class, path and message of the refusal (or its
acceptance) must equal the entry in `tests/golden/refusals.json`.

After an intended change of a refusal, regenerate that file with

    PYTHONPATH=src python tests/test_refusal_corpus.py
"""

from __future__ import annotations

import copy
import hashlib
import json
from functools import cache, partial
from pathlib import Path

from polycover import jsonio
from polycover.errors import SchemaError

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "refusals.json"

SEED = "refusals-1"
PER_DOCUMENT = 20
MUTATIONS = {
    "null": None,
    "empty string": "",
    "empty array": [],
    "empty object": {},
    "minus one": -1,
    "true": True,
}
DELETE = "delete"

# the documents a reader needs besides the one it reads, as the golden
# cases pass them: a cover, and for a delta map also carrier tables
NEEDS = {
    "bad.map.json": ("rem.cover.json",),
    "coarse.map.json": ("rem.cover.json",),
    "duplicate_id.refinement.json": ("tri3.cover.json",),
    "empty_simplex.tables.json": ("skeletal.cover.json",),
    "fine.delta.map.json": ("fine.cover.json",),
    "negative_level.map.json": ("rem.cover.json",),
    "no_tables.tables.json": ("skeletal.cover.json",),
    "not_a_refinement.refinement.json": ("tri2.cover.json",),
    "overlap.refinement.json": ("tri2.cover.json",),
    "rem.nerve.map.json": ("rem.cover.json",),
    "rem_overlap.map.json": ("rem.cover.json",),
    "skeletal.map.json": ("skeletal.cover.json", "skeletal.tables.json"),
    "skeletal.tables.json": ("skeletal.cover.json",),
    "skeletal_empty.map.json": ("skeletal.cover.json", "skeletal.tables.json"),
    "skeletal_unknown.map.json": ("skeletal.cover.json", "skeletal.tables.json"),
    "tet1.refinement.json": ("tet1.cover.json",),
    "tet1_overlap.refinement.json": ("tet1.cover.json",),
    "tri1_incomplete.map.json": ("tri1.cover.json",),
    "tri3.refinement.json": ("tri3.cover.json",),
    "uncovered.refinement.json": ("tri2.cover.json",),
}


def load(name: str):
    return json.loads((INPUTS / name).read_text(encoding="utf-8"))


@cache
def cover(name: str):
    return jsonio.cover_from_json(load(name))


@cache
def tables(cover_name: str, name: str):
    return jsonio.tables_from_json(cover(cover_name).space, load(name))


def reader(name: str):
    """The reader the command line uses for document `name`, as a function
    of the document alone."""
    if name.endswith(".complex.json"):
        return jsonio.complex_from_json
    if name.endswith(".cover.json"):
        return jsonio.cover_from_json
    if name.startswith("cone"):
        return jsonio.cone_input_from_json
    needs = NEEDS[name]
    cs = cover(needs[0])
    if name.endswith(".refinement.json"):
        return partial(jsonio.refinement_from_json, cs)
    if name.endswith(".tables.json"):
        return partial(jsonio.tables_from_json, cs.space)
    if len(needs) == 2:
        return partial(jsonio.delta_map_from_json, cs, tables(*needs).target)
    return partial(jsonio.canonical_map_from_json, cs)


def spots(value, at=()):
    """The key path of every value below the document root."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield at + (key,)
        yield from spots(inner, at + (key,))


def mutations(name: str, doc) -> list:
    """The seeded pick of (key path, operation) pairs for one document."""
    pairs = [(list(at), op) for at in spots(doc) for op in [*MUTATIONS, DELETE]]

    def rank(pair):
        return hashlib.sha256(f"{SEED}:{name}:{json.dumps(pair)}".encode()).hexdigest()

    return sorted(pairs, key=rank)[:PER_DOCUMENT]


def mutated(doc, at: list, op: str):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if op == DELETE:
        del parent[at[-1]]
    else:
        parent[at[-1]] = copy.deepcopy(MUTATIONS[op])
    return doc


def outcome(read, doc):
    """None when read accepts doc, else its refusal."""
    try:
        read(doc)
    except Exception as err:  # the class itself is what is pinned
        if isinstance(err, SchemaError):
            return {"error": "SchemaError", "path": err.path, "message": err.reason}
        return {"error": type(err).__name__, "path": None, "message": str(err)}
    return None


def corpus() -> list:
    rows = []
    for path in sorted(INPUTS.glob("*.json")):
        doc, read = load(path.name), reader(path.name)
        for at, op in mutations(path.name, doc):
            rows.append({
                "document": path.name,
                "at": at,
                "op": op,
                "outcome": outcome(read, mutated(doc, at, op)),
            })
    return rows


def test_mutated_documents_are_refused_as_pinned():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = corpus()
    assert [(r["document"], r["at"], r["op"]) for r in got] == [
        (r["document"], r["at"], r["op"]) for r in expected
    ]
    for row, want in zip(got, expected):
        assert row == want


def record() -> None:
    rows = ",\n".join(json.dumps(row, sort_keys=True) for row in corpus())
    EXPECTED.write_text(f"[\n{rows}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
