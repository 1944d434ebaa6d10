"""The four workloads: what one op calls, how its output is checked, and
what the traced run replays and counts after it.

Each workload is a class with

* ``fixtures``: the fixture files its set-up parses (see setup_probe.py);
* ``make_input(rng)``: the op's text inputs, from gen.py;
* ``run(inp, rec)``: the op, one public call per span;
* ``check(inp, out)``: a list of problems, empty when the output is right;
* ``replay(inp, out, rec)``: traced runs only, after the op's clock has
  stopped: public sub-steps the op's calls make internally, timed once
  each, and the per-layer counts.

Span names are ``<module>.<function>`` of the library call inside them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List

from ologdb import (
    SigmaMode,
    UniversalOutcome,
    apply_update,
    check_translation,
    closure,
    congruence_closure,
    elements,
    entailment_order,
    enumerate_paths,
    instance_from_json,
    instance_to_json,
    parse_asserted,
    parse_schema,
    parse_specification,
    pushout_schemas,
    pushout_sets,
    render_hasse,
    satisfies,
    serialize_schema,
    sigma,
    validate,
    verify_universal,
)
from ologdb.instance import ProgressiveUpdate
from ologdb.migration import DEFAULT_MAX_LEN

import gen


class Ingest:
    """Decode, validate, update, check facts and build the elements of an
    instance of A: the read and lookup path of ``instance`` and
    ``specfiber.satisfies``."""

    name = "ingest"
    fixtures = ("A.olog",)
    actions = 1000

    def __init__(self, schemas: Dict, translations: Dict, fixture_dir: Path) -> None:
        self.schema = schemas["A"]

    def make_input(self, rng: random.Random) -> Dict:
        return gen.ingest_case(rng, self.actions)

    def run(self, inp: Dict, rec) -> Dict:
        with rec.span("instance.instance_from_json"):
            base = instance_from_json(inp["base"], self.schema)
        with rec.span("instance.validate"):
            base_report = validate(base)
        with rec.span("instance.instance_from_json"):
            delta = instance_from_json(inp["delta"], self.schema)
        identity = ProgressiveUpdate({v: {r: r for r in base.rows(v)} for v in base.tables})
        with rec.span("instance.apply_update"):
            update = apply_update(base, delta, identity)
        with rec.span("instance.validate"):
            delta_report = validate(delta)
        with rec.span("specfiber.parse_specification"):
            spec = parse_specification(
                "\n".join(fact["text"] for fact in inp["facts"]), self.schema)
        satisfied = []
        for fact in spec.facts:
            with rec.span("specfiber.satisfies"):
                satisfied.append(satisfies(delta, fact))
        with rec.span("instance.elements"):
            category = elements(base)
        return {"base_report": base_report, "update": update,
                "delta_report": delta_report, "satisfied": satisfied,
                "category": category}

    def check(self, inp: Dict, out: Dict) -> List[str]:
        problems = []
        if not out["base_report"].ok:
            problems.append("base instance does not validate")
        report = out["delta_report"]
        if not report.structurally_ok:
            problems.append("delta has structural problems")
        if {e["equation"]: e["rows"] for e in report.equivalence} != inp["planted"]:
            problems.append("validate(delta) differs from the planted violations")
        if not out["update"].natural:
            problems.append("identity update is not natural")
        for fact, result in zip(inp["facts"], out["satisfied"]):
            if list(result.counterexamples) != fact["counterexamples"]:
                problems.append(f"satisfies({fact['name']}) differs from the planted set")
        category = out["category"]
        if (len(category.objects), len(category.morphisms)) != (
                inp["base_rows"], inp["base_morphisms"]):
            problems.append("elements(base) has the wrong size")
        return problems

    def replay(self, inp: Dict, out: Dict, rec) -> None:
        rec.count("instance.rows_in", inp["base_rows"] + inp["delta_rows"])
        rec.count("instance.violations_out",
                  sum(len(e["rows"]) for e in out["delta_report"].equivalence))
        rec.count("specfiber.counterexamples_out",
                  sum(len(r.counterexamples) for r in out["satisfied"]))
        rec.count("instance.elements_morphisms_out", len(out["category"].morphisms))


class Migrate:
    """Push an instance of A along psi into C both ways and encode the
    results: the build and write path of ``migration`` and ``instance``."""

    name = "migrate"
    fixtures = ("A.olog", "C.olog", "psi.json")
    actions = 2000

    def __init__(self, schemas: Dict, translations: Dict, fixture_dir: Path) -> None:
        self.schema = schemas["A"]
        self.psi = translations["psi"]
        self.vmap = json.loads((fixture_dir / "psi.json").read_text("utf-8"))["vmap"]

    def make_input(self, rng: random.Random) -> Dict:
        return gen.migrate_case(rng, self.actions, self.vmap)

    def run(self, inp: Dict, rec) -> Dict:
        with rec.span("instance.instance_from_json"):
            source = instance_from_json(inp["instance"], self.schema)
        with rec.span("migration.sigma.colimit"):
            colimit = sigma(self.psi, source, SigmaMode.COLIMIT)
        with rec.span("migration.sigma.disjoint"):
            disjoint = sigma(self.psi, source, SigmaMode.DISJOINT_UNION)
        with rec.span("instance.instance_to_json"):
            texts = (instance_to_json(colimit), instance_to_json(disjoint))
        return {"source": source, "colimit": colimit, "disjoint": disjoint,
                "texts": texts}

    def check(self, inp: Dict, out: Dict) -> List[str]:
        problems = []
        if not validate(out["colimit"]).ok:
            problems.append("colimit output does not validate")
        disjoint = out["disjoint"]
        for d in self.psi.target.graph.vertices:
            if len(disjoint.rows(d)) != inp["disjoint_rows"].get(d, 0):
                problems.append(f"disjoint table {d} is not the union of its preimages")
        for text, result in zip(out["texts"], (out["colimit"], disjoint)):
            tables = json.loads(text)["tables"]
            if sum(len(rows) for rows in tables.values()) != result.total_rows():
                problems.append("encoded output lost rows")
        return problems

    def replay(self, inp: Dict, out: Dict, rec) -> None:
        with rec.span("instance.validate"):
            validate(out["source"])
        with rec.span("migration.check_translation"):
            check_translation(self.psi, DEFAULT_MAX_LEN)
        target = self.psi.target
        with rec.span("schema.congruence_closure"):
            partition = congruence_closure(target, DEFAULT_MAX_LEN)
        classes = partition.classes()
        source = out["source"]
        copies = 0
        for d in target.graph.vertices:
            for v in source.schema.graph.vertices:
                reps = {partition.representative(p).key() for p in
                        enumerate_paths(target, self.psi.vmap[v], d, DEFAULT_MAX_LEN)}
                copies += len(reps) * len(source.rows(v))
        rows_out = out["colimit"].total_rows()
        rec.count("instance.rows_in", source.total_rows())
        rec.count("migration.rows_out.colimit", rows_out)
        rec.count("migration.rows_out.disjoint", out["disjoint"].total_rows())
        rec.count("schema.paths", sum(len(c) for c in classes))
        rec.count("schema.classes", len(classes))
        rec.count("migration.comma_copies", copies)
        rec.count("migration.rows_out_per_copy", rows_out / copies)


class Lattice:
    """Parse a cyclic schema and two specifications over it, order each and
    render its Hasse diagram: the ``schema`` closure layer, reused by every
    node of the order, and the order closure itself."""

    name = "lattice"
    fixtures = ()
    # (label, facts, path bound): deep has few facts over ~500 paths, wide
    # has many facts over ~60 paths.
    halves = (("deep", 30, 7), ("wide", 100, 4))

    def __init__(self, schemas: Dict, translations: Dict, fixture_dir: Path) -> None:
        pass

    def make_input(self, rng: random.Random) -> Dict:
        return gen.lattice_case(rng, self.halves)

    def run(self, inp: Dict, rec) -> Dict:
        with rec.span("dsl.parse_schema"):
            schema = parse_schema(inp["schema"], inp["name"])
        results = []
        for half in inp["specs"]:
            with rec.span("specfiber.parse_specification"):
                spec = parse_specification(half["spec"], schema)
            asserted = parse_asserted(half["asserted"])
            with rec.span("specfiber.entailment_order"):
                order = entailment_order(spec, half["max_len"], asserted)
            with rec.span("specfiber.render_hasse"):
                dot = render_hasse(order)
            results.append((spec, order, dot))
        return {"results": results}

    def check(self, inp: Dict, out: Dict) -> List[str]:
        problems = []
        for half, (spec, order, dot) in zip(inp["specs"], out["results"]):
            label = half["label"]
            holds = {(e.above, e.below) for e in order.relation}
            below: Dict[str, List[str]] = {}
            for a, b in holds:
                below.setdefault(a, []).append(b)
            if len(order.nodes) != half["facts"] + 1:
                problems.append(f"{label}: wrong number of nodes")
            if any((n, n) not in holds for n in order.nodes):
                problems.append(f"{label}: relation is not reflexive")
            if any((a, c) not in holds for a, b in holds for c in below.get(b, ())):
                problems.append(f"{label}: relation is not transitive")
            if any((e.above, e.below) not in holds for e in order.hasse):
                problems.append(f"{label}: a Hasse edge is not in the relation")
            if dot.count(" -> ") != len(order.hasse):
                problems.append(f"{label}: DOT output lost edges")
        return problems

    def replay(self, inp: Dict, out: Dict, rec) -> None:
        paths = classes = facts = pairs = edges = 0
        for half, (spec, order, _) in zip(inp["specs"], out["results"]):
            for subset in [[name] for name in spec.names()] + [[]]:
                with rec.span("specfiber.closure"):
                    result = closure(spec, subset, half["max_len"])
                found = result.partition.classes()
                paths += sum(len(c) for c in found)
                classes += len(found)
            facts += len(spec.facts)
            pairs += len(order.relation)
            edges += len(order.hasse)
        rec.count("specfiber.facts", facts)
        rec.count("schema.paths", paths)
        rec.count("schema.classes", classes)
        rec.count("specfiber.relation_pairs", pairs)
        rec.count("specfiber.hasse_edges", edges)


class Glue:
    """Push out seeded finite sets, check the universal property against a
    cocone of the benchmark's own, and glue the core fixture schemas: the
    ``colimit`` layer."""

    name = "glue"
    fixtures = ("Acore.olog", "B.olog", "C.olog", "phi_core.json", "psi_core.json")
    xy_elements = 1000
    z_elements = 500

    def __init__(self, schemas: Dict, translations: Dict, fixture_dir: Path) -> None:
        self.phi = translations["phi_core"]
        self.psi = translations["psi_core"]

    def make_input(self, rng: random.Random) -> Dict:
        return gen.glue_case(rng, self.xy_elements, self.z_elements)

    def run(self, inp: Dict, rec) -> Dict:
        data = json.loads(inp["text"])
        with rec.span("colimit.pushout_sets"):
            pushout = pushout_sets(data["x"], data["y"], data["z"], data["f"], data["g"])
        cocone = data["cocone"]
        with rec.span("colimit.verify_universal"):
            universal = verify_universal(pushout, data["f"], data["g"], cocone["set"],
                                         cocone["j1"], cocone["j2"])
        with rec.span("colimit.pushout_schemas"):
            glued = pushout_schemas(self.phi, self.psi)
        with rec.span("dsl.serialize_schema"):
            text = serialize_schema(glued.result)
        return {"pushout": pushout, "universal": universal, "glued": glued, "text": text}

    def check(self, inp: Dict, out: Dict) -> List[str]:
        problems = []
        if out["universal"].outcome is not UniversalOutcome.MEDIATOR_EXISTS:
            problems.append(f"verify_universal gave {out['universal'].outcome.value}")
        if len(out["pushout"].classes) != inp["classes"]:
            problems.append("class count differs from the BFS component count")
        arrows = len(self.phi.target.graph.arrows) + len(self.psi.target.graph.arrows)
        if len(out["glued"].result.graph.arrows) != arrows:
            problems.append("schema pushout lost arrow generators")
        if out["text"].count("\narrow ") != arrows:
            problems.append("serialized pushout lost arrows")
        return problems

    def replay(self, inp: Dict, out: Dict, rec) -> None:
        rec.count("colimit.elements_in", inp["elements"])
        rec.count("colimit.classes_out", len(out["pushout"].classes))


WORKLOADS = {w.name: w for w in (Ingest, Migrate, Lattice, Glue)}
