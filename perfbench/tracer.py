"""Traced-run harness: spans and counters around the program's layers,
installed from outside by rebinding names.

Every public function defined in a layer module (`complexes`,
`realization`, `covers`, `selections`, `dimension`, `jsonio`, `cli`) is
replaced in every module namespace that binds it: the layer modules
themselves, the other package modules, the package and this benchmark's
`workloads`.  `polycover.dimension.star_subset` and
`polycover.realization.star_subset` are therefore patched separately and
both record `realization.star_subset` spans.  `vlabel` and `simplex_key`
are called millions of times; they get call counters only, and their time
stays in the caller's self time.

A span's self time is its duration minus the durations of the spans it
called directly, kept with an explicit stack.  Single-threaded code has no
queues, so there is no wait metric.  Spans are aggregated in memory and
read once when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("complexes", "realization", "covers", "selections", "dimension", "jsonio", "cli")
COUNTED_ONLY = {"complexes.vlabel", "complexes.simplex_key"}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list = []
        self.open = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.seen_nerves: set = set()
        self.patched: list = []

    # -- installation -------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        package = importlib.import_module("polycover")
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polycover.{layer}")
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[value] = f"{layer}.{name}"
        wrappers = {fn: self._wrap(fn, key) for fn, key in originals.items()}
        namespaces = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("polycover.")
        ]
        namespaces += list(extra_namespaces)
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self.patched):
            setattr(module, name, value)
        self.patched.clear()

    def _wrap(self, fn, key):
        if key in COUNTED_ONLY:
            def counted(*args, **kwargs):
                if self.active:
                    self.calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        is_parse = key.startswith("jsonio.") and key.endswith("_from_json")
        stack, open_, self_s, incl_s, calls = (
            self.stack, self.open, self.self_s, self.incl_s, self.calls,
        )

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            open_[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if is_parse and open_[key] == 1 and type(err).__name__ == "SchemaError":
                    if not any(open_[k] for k in open_ if k != key and k.endswith("_from_json")):
                        self.counts["jsonio.rejects"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                open_[key] -= 1
                self_s[key] += duration - frame[0]
                incl_s[key] += duration
                calls[key] += 1
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- counters taken at the layer boundaries --------------------------------

    def _after_complexes_subdivide(self, args, kwargs, result):
        self.counts["complexes.simplices_built"] += len(result.complex.simplices)

    def _after_realization_star_relation(self, args, kwargs, result):
        s1, s2 = args[:2]
        level = max(s1.level, s2.level)
        self.counts["realization.simplices_swept"] += len(
            s1.space.stage_complex(level).simplices
        )

    def _after_realization_star_subset(self, args, kwargs, result):
        if self.open["covers.refinement_map"]:
            self.counts["covers.refinement_map.subset_tests"] += 1

    def _after_covers_refinement_map(self, args, kwargs, result):
        self.counts["covers.refinement_map.elements"] += len(result.vertex_images)

    def _nerve_call(self, name, args, kwargs):
        cs = args[0]
        kappa = args[1] if len(args) > 1 else kwargs.get("kappa")
        key = (name, hash(cs), kappa if kappa is not None else cs.num_levels)
        self.counts["covers.nerve.calls"] += 1
        if key in self.seen_nerves:
            self.counts["covers.nerve.repeats"] += 1
        self.seen_nerves.add(key)

    def _after_covers_nerve(self, args, kwargs, result):
        self._nerve_call("nerve", args, kwargs)

    def _after_covers_delta_subcomplex(self, args, kwargs, result):
        self._nerve_call("delta", args, kwargs)

    def _after_selections_build_canonical(self, args, kwargs, result):
        cs = args[0]
        self.counts["selections.build_canonical.levels_tried"] += (
            result.subdivision_level - cs.working_level + 1
        )

    def _after_dimension_search_c_refinement(self, args, kwargs, result):
        for audit in result.audits:
            self.counts["dimension.search.nodes"] += audit.nodes
            self.counts["dimension.search.prunes"] += audit.prunes

    def _emitted(self, args, kwargs, result):
        self.counts["jsonio.bytes_out"] += len(result.encode("utf-8"))

    _after_jsonio_dumps = _emitted
    _after_jsonio_complex_to_dot = _emitted
    _after_jsonio_nerve_to_dot = _emitted

    # -- metrics -----------------------------------------------------------------

    def metrics(self, busy_s: float) -> dict:
        s, c, n = self.self_s, self.calls, self.counts

        def total(pred) -> float:
            return sum((v for k, v in s.items() if pred(k)), 0.0)

        search_incl = self.incl_s["dimension.search_c_refinement"]
        nodes = n["dimension.search.nodes"]
        nerve_calls = n["covers.nerve.calls"]
        elements = n["covers.refinement_map.elements"]
        out = {
            "complexes.subdivide.calls": c["complexes.subdivide"],
            "complexes.subdivide.self_s": s["complexes.subdivide"],
            "complexes.simplices_built": n["complexes.simplices_built"],
            "complexes.vlabel.calls": c["complexes.vlabel"],
            "complexes.simplex_key.calls": c["complexes.simplex_key"],
            "realization.push_star.calls": c["realization.push_star"],
            "realization.push_star.self_s": s["realization.push_star"],
            "realization.star_relation.calls": c["realization.star_relation"],
            "realization.star_relation.self_s": s["realization.star_relation"],
            "realization.simplices_swept": n["realization.simplices_swept"],
            "realization.star_set.self_s": s["realization.star_set"],
            "covers.cover_sequence.self_s": s["covers.cover_sequence"],
            "covers.nerve.self_s": s["covers.nerve"] + s["covers.delta_subcomplex"],
            "covers.nerve.repeat_share": (
                n["covers.nerve.repeats"] / nerve_calls if nerve_calls else 0.0
            ),
            "covers.refinement_map.self_s": s["covers.refinement_map"],
            "covers.refinement_map.subset_tests_per_element": (
                n["covers.refinement_map.subset_tests"] / elements if elements else 0.0
            ),
            "selections.build_canonical.self_s": s["selections.build_canonical"],
            "selections.build_canonical.levels_tried": n[
                "selections.build_canonical.levels_tried"
            ],
            "selections.predicates.self_s": total(
                lambda k: k.startswith(("selections.is_", "selections.why_not_"))
            ),
            "selections.extract_c_refinement.self_s": s["selections.extract_c_refinement"],
            "dimension.search.self_s": s["dimension.search_c_refinement"],
            "dimension.search.nodes": nodes,
            "dimension.search.prunes": n["dimension.search.prunes"],
            "dimension.search.prune_ratio": (
                n["dimension.search.prunes"] / nodes if nodes else 0.0
            ),
            "dimension.search.nodes_per_s": nodes / search_incl if search_incl else 0.0,
            "dimension.verify_c_refinement.self_s": s["dimension.verify_c_refinement"],
            "dimension.ostrand_refine.self_s": s["dimension.ostrand_refine"],
            "dimension.mu_driver.self_s": s["dimension.mu_driver"],
            "jsonio.parse.self_s": total(
                lambda k: k.startswith("jsonio.") and k.endswith("_from_json")
            ),
            "jsonio.emit.self_s": total(
                lambda k: k == "jsonio.dumps"
                or (k.startswith("jsonio.") and k.endswith(("_to_json", "_to_dot")))
            ),
            "jsonio.bytes_out": n["jsonio.bytes_out"],
            "jsonio.rejects": n["jsonio.rejects"],
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": s["cli.main"],
        }
        layer_self = {
            layer: total(lambda k, p=layer + ".": k.startswith(p)) for layer in LAYERS
        }
        for layer, value in layer_self.items():
            out[f"share.{layer}"] = value / busy_s if busy_s else 0.0
        out["trace.self_coverage"] = sum(layer_self.values()) / busy_s if busy_s else 0.0
        return out
