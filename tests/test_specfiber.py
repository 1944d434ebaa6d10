from __future__ import annotations

import random
import re

import pytest

from ologdb.instance import InvalidInstanceError, make_instance, validate
from ologdb.schema import Path, PathEquivalence
from ologdb.specfiber import (
    BOTTOM,
    Fact,
    Specification,
    UnknownFactError,
    closure,
    entailment_order,
    order_to_dict,
    parse_asserted,
    parse_specification,
    render_hasse,
    satisfies,
)

import oracles
from conftest import T_1952


# -- spec parsing -------------------------------------------------------------


def test_fixture_spec_parses(silent_spec):
    assert silent_spec.names() == [f"E{i}" for i in range(1, 14)]
    e1 = silent_spec.fact("E1")
    assert [str(eq) for eq in e1.equations] == ["u = j.c", "u = w.s.c"]


def test_unknown_fact_name(silent_spec):
    with pytest.raises(UnknownFactError):
        closure(silent_spec, ["E99"], 6)


def test_duplicate_fact_names_rejected(schema_s):
    text = "fact F { u = j.c }\nfact F { j = w.s }\n"
    with pytest.raises(Exception):
        parse_specification(text, schema_s)


def test_asserted_file_parses(asserted_pairs):
    assert ("E6", "E5") in asserted_pairs
    assert ("E9", "E12") in asserted_pairs
    assert len(asserted_pairs) == 10


# -- closure -------------------------------------------------------------------


def test_empty_closure_is_reflexive_only(silent_spec, schema_s):
    result = closure(silent_spec, [], 4)
    assert all(len(cls) == 1 for cls in result.partition.classes())
    p = schema_s.path(("u",))
    assert result.contains(PathEquivalence(p, p))


def test_closure_of_first_fact_contains_transitive_pair(silent_spec, schema_s):
    result = closure(silent_spec, ["E1"], 6)
    jc = schema_s.path(("j", "c"))
    wsc = schema_s.path(("w", "s", "c"))
    assert result.contains(PathEquivalence(jc, wsc))


def test_closure_of_transport_facts_derives_gluing_fact(silent_spec, schema_s):
    # Frozen from the saturation oracle: E12 whiskered into the field plus
    # the pasting equation E13 derive both equations of E7.
    axioms = list(silent_spec.fact("E12").equations) + list(
        silent_spec.fact("E13").equations
    )
    comp = oracles.naive_congruence(schema_s, 6, axioms)
    lhs = schema_s.path(("d", "i2", "i5"))
    for word in (("X_B", "i6"), ("d", "z", "i6")):
        assert comp[lhs.key()] == comp[schema_s.path(word).key()]

    result = closure(silent_spec, ["E12", "E13"], 6)
    for eq in silent_spec.fact("E7").equations:
        assert result.contains(eq)


def test_closure_operator_laws(silent_spec):
    # extensive, monotone, idempotent at a fixed bound
    sub = ["E1", "E3"]
    got = closure(silent_spec, sub, 5)
    for name in sub:
        for eq in silent_spec.fact(name).equations:
            assert got.contains(eq)
    classes = got.partition.classes()
    bigger = closure(silent_spec, sub + ["E4"], 5)
    for cls in classes:
        assert all(bigger.partition.same(cls[0], p) for p in cls)
    # idempotence: re-seeding with every derived pair changes nothing
    reseeded_axioms = [PathEquivalence(cls[0], p) for cls in classes for p in cls[1:]]
    from ologdb.schema import congruence_closure

    again = congruence_closure(silent_spec.schema, 5, reseeded_axioms)
    assert again.classes() == classes


# -- entailment order ------------------------------------------------------------


def test_reflexive_edges_are_derived(silent_spec, asserted_pairs):
    order = entailment_order(silent_spec, 8, asserted_pairs)
    for n in order.nodes:
        assert order.tag_of(n, n) == "Derived"


def test_everything_sits_above_bottom(silent_spec, asserted_pairs):
    order = entailment_order(silent_spec, 8, asserted_pairs)
    for n in order.nodes:
        assert order.tag_of(n, BOTTOM) == "Derived"


def test_fixture_order_matches_published_lattice(silent_spec, asserted_pairs):
    order = entailment_order(silent_spec, 8, asserted_pairs)
    hasse = {(e.above, e.below): e.tag for e in order.hasse}
    assert hasse == {
        ("E6", "E5"): "AssertedOnly",
        ("E6", "E13"): "AssertedOnly",
        ("E5", "E1"): "AssertedOnly",
        ("E1", "E3"): "AssertedOnly",
        ("E9", "E7"): "AssertedOnly",
        ("E7", "E12"): "AssertedOnly",
        ("E7", "E13"): "AssertedOnly",
        ("E11", "E12"): "AssertedOnly",
        ("E10", "E8"): "AssertedOnly",
        ("E2", BOTTOM): "Derived",
        ("E3", BOTTOM): "Derived",
        ("E4", BOTTOM): "Derived",
        ("E8", BOTTOM): "Derived",
        ("E12", BOTTOM): "Derived",
        ("E13", BOTTOM): "Derived",
    }
    # the drawn shortcut above the chain survives in the full relation
    assert order.tag_of("E9", "E12") == "AssertedOnly"


def test_containment_gives_derived_edge(schema_s):
    big = Fact(
        "big",
        (
            PathEquivalence(schema_s.path(("u",)), schema_s.path(("j", "c"))),
            PathEquivalence(schema_s.path(("t",)), schema_s.path(("f", "a"))),
        ),
    )
    small = Fact(
        "small",
        (PathEquivalence(schema_s.path(("u",)), schema_s.path(("j", "c"))),),
    )
    spec = Specification(schema_s, (big, small))
    order = entailment_order(spec, 4)
    assert order.tag_of("big", "small") == "Derived"
    assert order.tag_of("small", "big") is None


def test_unknown_asserted_pair_rejected(silent_spec):
    with pytest.raises(UnknownFactError):
        entailment_order(silent_spec, 6, [("E1", "E99")])


def test_order_relation_matches_pair_saturation_random():
    # Reference: saturate the pair set until no composite pair is missing.
    rng = random.Random(0x0DE5)
    for _ in range(15):
        schema = oracles.random_schema(rng, max_vertices=3, max_arrows=4,
                                       n_equations=0)
        paths = [schema.path(w) for _, w in oracles.all_dfs_paths(schema, 2) if w]
        parallel = {}
        for p in paths:
            parallel.setdefault((p.start, p.end), []).append(p)
        groups = [g for g in parallel.values() if len(g) > 1]
        if not groups:
            continue
        facts = []
        for i in range(6):
            lhs, rhs = rng.sample(rng.choice(groups), 2)
            facts.append(Fact(f"F{i}", (PathEquivalence(lhs, rhs),)))
        spec = Specification(schema, tuple(facts))
        nodes = spec.names() + [BOTTOM]
        asserted = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(5)]
        order = entailment_order(spec, 3, asserted)

        closures = {n: closure(spec, [] if n == BOTTOM else [n], 3) for n in nodes}
        equations = {f.name: f.equations for f in facts}
        equations[BOTTOM] = ()
        derived = {
            (a, b)
            for a in nodes
            for b in nodes
            if all(closures[a].contains(eq) for eq in equations[b])
        }
        holds = derived | set(asserted)
        changed = True
        while changed:
            changed = False
            for a, b in list(holds):
                for c, d in list(holds):
                    if b == c and (a, d) not in holds:
                        holds.add((a, d))
                        changed = True
        assert {(e.above, e.below) for e in order.relation} == holds
        for e in order.relation:
            want = "Derived" if (e.above, e.below) in derived else "AssertedOnly"
            assert e.tag == want


def test_no_transitive_shortcuts_among_hasse_edges(silent_spec, asserted_pairs):
    order = entailment_order(silent_spec, 8, asserted_pairs)
    above = {}
    for e in order.hasse:
        above.setdefault(e.above, set()).add(e.below)
    for e in order.hasse:
        for mid in above.get(e.above, ()):  # two-step reach
            if mid != e.below and e.below in above.get(mid, set()):
                pytest.fail(f"shortcut {e.above} >= {e.below} via {mid}")


# -- satisfies ----------------------------------------------------------------------


def test_empty_instance_satisfies_everything(schema_s, silent_spec):
    empty = make_instance(schema_s, {}, {})
    for fact in silent_spec.facts:
        assert satisfies(empty, fact).holds


def test_migrated_premiere_data_models_all_facts(db_s, silent_spec):
    for fact in silent_spec.facts:
        result = satisfies(db_s, fact)
        assert result.holds, (fact.name, result.counterexamples)


def test_corrupted_fulfillment_column_is_named(db_s, silent_spec):
    tables = {v: list(rows) for v, rows in db_s.tables.items()}
    tables["D"].append("junk instruction")
    columns = {a: dict(col) for a, col in db_s.columns.items()}
    columns["u"][T_1952] = "junk instruction"
    columns["i1"]["junk instruction"] = db_s.rows("W")[0]
    broken = make_instance(db_s.schema, tables, columns)
    result = satisfies(broken, silent_spec.fact("E1"))
    assert not result.holds
    assert all(row == T_1952 for _, row in result.counterexamples)


def test_satisfies_refuses_structurally_broken_instances(db_s, silent_spec):
    columns = {a: dict(col) for a, col in db_s.columns.items()}
    del columns["u"][T_1952]
    broken = make_instance(db_s.schema, db_s.tables, columns)
    with pytest.raises(InvalidInstanceError):
        satisfies(broken, silent_spec.fact("E1"))


def test_satisfies_refusal_carries_the_full_validation_report(db_s, silent_spec):
    columns = {a: dict(col) for a, col in db_s.columns.items()}
    del columns["u"][T_1952]
    broken = make_instance(db_s.schema, db_s.tables, columns)
    with pytest.raises(InvalidInstanceError) as exc:
        satisfies(broken, silent_spec.fact("E1"))
    assert str(exc.value) == str(InvalidInstanceError(validate(broken)))


def test_satisfies_does_not_check_schema_equations(monkeypatch, db_s, silent_spec):
    # A structurally sound instance needs no full validation: the schema's
    # own equations are not what satisfies is asked about.
    import ologdb.specfiber as specfiber

    def refuse(instance):
        raise AssertionError("satisfies ran the full validate")

    monkeypatch.setattr(specfiber, "validate", refuse)
    for fact in silent_spec.facts:
        satisfies(db_s, fact)


def test_satisfaction_is_antitone_in_fact_strength(schema_s, db_s):
    stronger = Fact(
        "stronger",
        (
            PathEquivalence(schema_s.path(("u",)), schema_s.path(("j", "c"))),
            PathEquivalence(schema_s.path(("j",)), schema_s.path(("w", "s"))),
        ),
    )
    weaker = Fact("weaker", stronger.equations[:1])
    assert satisfies(db_s, stronger).holds
    assert satisfies(db_s, weaker).holds  # subset of equations


def test_derived_edges_are_sound_on_random_instances():
    rng = random.Random(0x0DDE)
    sound_checks = 0
    for _ in range(40):
        schema = oracles.random_schema(rng, max_vertices=4, max_arrows=5,
                                       n_equations=0, acyclic=True)
        parallel = {}
        from ologdb.schema import all_paths_up_to

        for p in all_paths_up_to(schema, 3):
            parallel.setdefault((p.start, p.end), []).append(p)
        groups = [g for g in parallel.values() if len(g) > 1]
        if not groups:
            continue
        facts = []
        for i in range(2):
            g = rng.choice(groups)
            lhs, rhs = rng.sample(g, 2)
            facts.append(Fact(f"F{i}", (PathEquivalence(lhs, rhs),)))
        spec = Specification(schema, tuple(facts))
        order = entailment_order(spec, 4)
        inst = oracles.random_instance(rng, schema, max_rows=2)
        for e in order.relation:
            if e.tag != "Derived" or BOTTOM in (e.above, e.below):
                continue
            if e.above == e.below:
                continue
            above_ok = satisfies(inst, spec.fact(e.above)).holds
            if above_ok:
                assert satisfies(inst, spec.fact(e.below)).holds
                sound_checks += 1
    assert sound_checks >= 0  # soundness asserted whenever triggered


# -- rendering ---------------------------------------------------------------------


def test_single_fact_renders_two_nodes_one_edge(schema_s):
    fact = Fact("only", (PathEquivalence(schema_s.path(("u",)),
                                         schema_s.path(("j", "c"))),))
    spec = Specification(schema_s, (fact,))
    order = entailment_order(spec, 4)
    dot = render_hasse(order)
    node_lines = [l for l in dot.splitlines() if re.fullmatch(r'  "[^"]+";', l)]
    assert len(node_lines) == 2
    assert dot.count("->") == 1
    assert f'"only" -> "{BOTTOM}";' in dot


def test_fixture_dot_has_fourteen_nodes(silent_spec, asserted_pairs):
    order = entailment_order(silent_spec, 8, asserted_pairs)
    dot = render_hasse(order)
    node_lines = [l for l in dot.splitlines() if re.fullmatch(r'  "[^"]+";', l)]
    assert len(node_lines) == 14
    assert dot.count("->") == 15
    assert dot.count("dashed") == 9


def test_dot_edges_roundtrip_order(silent_spec, asserted_pairs):
    order = entailment_order(silent_spec, 8, asserted_pairs)
    dot = render_hasse(order)
    edges = set(re.findall(r'"([^"]+)" -> "([^"]+)"', dot))
    assert edges == {(e.above, e.below) for e in order.hasse}


def test_order_to_dict_is_stable(silent_spec, asserted_pairs):
    a = order_to_dict(entailment_order(silent_spec, 8, asserted_pairs))
    b = order_to_dict(entailment_order(silent_spec, 8, asserted_pairs))
    assert a == b
