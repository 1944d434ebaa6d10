from __future__ import annotations

import itertools
import random

import pytest

from ologdb.instance import instance_to_json, make_instance, validate
from ologdb.migration import (
    SigmaMode,
    Translation,
    TranslationError,
    check_translation,
    comma,
    compose_translations,
    identity_translation,
    sigma,
    terminal_schema,
    translation_from_dict,
    translation_to_dict,
    vertex_pick,
)
from ologdb.schema import Derivability, Path, PathEquivalence

import oracles
from conftest import (
    AMBIENT_1952,
    ARENA_1952,
    INCIDENTAL_1952,
    PAIR_1952,
    SITE_1952,
)


# -- check_translation -----------------------------------------------------------


def test_identity_translation_all_derivable(schema_a):
    report = check_translation(identity_translation(schema_a), 8)
    assert report.ok
    assert all(d is Derivability.DERIVABLE for _, d in report.equivalence_status)


def test_phi_merges_listeners_into_actants(phi):
    assert phi.vertex_image("J") == "J" and phi.vertex_image("L") == "J"
    report = check_translation(phi, 8)
    assert report.ok and not report.endpoint_violations
    assert all(d is Derivability.DERIVABLE for _, d in report.equivalence_status)


def test_psi_adds_perception_equivalence(psi, schema_c):
    report = check_translation(psi, 8)
    assert report.ok
    assert all(d is Derivability.DERIVABLE for _, d in report.equivalence_status)
    # The target declares that perceiving what a site produces means
    # being contained in the site.
    wanted = PathEquivalence(
        schema_c.path(("l",)), schema_c.path(("p", "h"))
    )
    assert wanted in schema_c.equivalences


def test_endpoint_violation_is_hard(schema_a, schema_b):
    broken = Translation(
        source=schema_a,
        target=schema_b,
        vmap={v: v if v != "L" else "J" for v in schema_a.graph.vertices},
        amap={
            a: Path(schema_b.graph.src[a], schema_b.graph.tar[a], (a,))
            for a in schema_a.graph.arrows
            if a != "c"
        }
        | {"c": Path("T", "M", ("j",))},  # wrong endpoints for c: M -> D
    )
    report = check_translation(broken, 4)
    assert not report.ok
    assert report.endpoint_violations


def test_partial_vmap_is_structural_error(schema_a, schema_b, phi):
    vmap = dict(phi.vmap)
    del vmap["Q"]
    broken = Translation(schema_a, schema_b, vmap, dict(phi.amap))
    report = check_translation(broken, 4)
    assert any("Q" in s for s in report.structural)


# -- comma categories --------------------------------------------------------------


def test_terminal_identity_comma():
    one = terminal_schema()
    ident = identity_translation(one)
    cat = comma(ident, ident, max_len=4)
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 1
    obj = cat.objects[0]
    assert (obj.left, obj.right) == ("pt", "pt") and obj.f.is_trivial


def test_comma_over_sounds_vertex_contains_ambient_triple(psi, schema_c):
    pick = vertex_pick(schema_c, "A")
    cat = comma(psi, pick, max_len=8)
    triples = {(o.left, o.right, o.f.key()) for o in cat.objects}
    assert ("E", "pt", ("A", ())) in triples  # (E, A, psi(id_A))
    assert ("K", "pt", ("A", ())) in triples
    assert ("A", "pt", ("A", ())) in triples
    assert ("Q", "pt", ("Q", ("p",))) in triples
    assert len(cat.objects) == 4


def brute_force_comma_objects(F, G, max_len):
    """Independent enumeration of (a, b, path-class) triples."""
    apex = F.target
    comp = oracles.naive_congruence(apex, max_len, apex.equivalences)
    objects = set()
    for a in F.source.graph.vertices:
        for b in G.source.graph.vertices:
            fa, gb = F.vmap[a], G.vmap[b]
            classes = {
                comp[key]
                for key in oracles.dfs_paths(apex, fa, gb, max_len)
            }
            for cls in classes:
                objects.add((a, b, cls))
    return objects


def test_comma_objects_match_bruteforce_random():
    rng = random.Random(0xCAFE)
    for _ in range(25):
        apex = oracles.random_schema(rng, max_vertices=3, max_arrows=4,
                                     n_equations=1, name="X")
        src1 = oracles.random_schema(rng, max_vertices=2, max_arrows=2,
                                     n_equations=0, name="S1")
        src2 = oracles.random_schema(rng, max_vertices=2, max_arrows=2,
                                     n_equations=0, name="S2")
        f = _random_translation(rng, src1, apex, 2)
        g = _random_translation(rng, src2, apex, 2)
        if f is None or g is None:
            continue
        cat = comma(f, g, max_len=3)
        comp = oracles.naive_congruence(apex, 3, apex.equivalences)
        got = {(o.left, o.right, comp[o.f.key()]) for o in cat.objects}
        want = brute_force_comma_objects(f, g, 3)
        assert got == want


def _random_translation(rng, source, target, max_image_len):
    vmap = {v: rng.choice(target.graph.vertices) for v in source.graph.vertices}
    amap = {}
    for a in source.graph.arrows:
        start, end = vmap[source.graph.src[a]], vmap[source.graph.tar[a]]
        options = oracles.dfs_paths(target, start, end, max_image_len)
        if not options:
            return None
        s, word = rng.choice(options)
        amap[a] = target.path(word, start=s) if not word else target.path(word)
    t = Translation(source=source, target=target, vmap=vmap, amap=amap)
    return t if check_translation(t, 3).ok else None


# -- sigma -------------------------------------------------------------------------


def test_identity_sigma_is_the_identity(db_a):
    ident = identity_translation(db_a.schema)
    for mode in (SigmaMode.COLIMIT, SigmaMode.DISJOINT_UNION):
        out = sigma(ident, db_a, mode)
        assert instance_to_json(out) == instance_to_json(db_a)


def test_disjoint_union_of_sound_tables(psi, db_a):
    out = sigma(psi, db_a, SigmaMode.DISJOINT_UNION)
    # The migrated sounds table is the plain union of the ambient set, the
    # incidental set and the pair, kept distinct.
    assert sorted(out.rows("A")) == sorted([AMBIENT_1952, INCIDENTAL_1952,
                                            PAIR_1952])
    # Only functorially determined cells are filled: the pair demarcates
    # the arena, and incidental sounds keep their producer; nothing in the
    # premiere data says what the bare ambient set demarcates.
    assert out.columns["d"] == {PAIR_1952: ARENA_1952}
    assert out.columns["h"] == {PAIR_1952: "{N.N.}", INCIDENTAL_1952: "{N.N.}"}


def test_disjoint_union_row_counts_are_sums(psi, db_a):
    out = sigma(psi, db_a, SigmaMode.DISJOINT_UNION)
    preimages = {}
    for v in psi.source.graph.vertices:
        preimages.setdefault(psi.vmap[v], []).append(v)
    for d in psi.target.graph.vertices:
        want = sum(len(db_a.rows(v)) for v in preimages.get(d, []))
        assert len(out.rows(d)) == want


def test_disjoint_union_row_counts_random():
    rng = random.Random(0x2B2B)
    done = 0
    while done < 30:
        source = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                                       n_equations=0, name="S", acyclic=True)
        target = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                                       n_equations=0, name="T", acyclic=True)
        F = _random_translation(rng, source, target, 1)
        if F is None:
            continue
        I = oracles.random_instance(rng, source, max_rows=3)
        out = sigma(F, I, SigmaMode.DISJOINT_UNION, max_len=3)
        done += 1
        for d in target.graph.vertices:
            want = sum(
                len(I.rows(v))
                for v in source.graph.vertices
                if F.vmap[v] == d
            )
            assert len(out.rows(d)) == want


def test_underivable_equivalence_is_warning_not_failure(schema_a):
    # A target lacking every law: the translation still checks out, its
    # equivalence images are just reported as not derivable in the bound.
    from ologdb.schema import Schema

    lawless = Schema(
        name="lawless",
        graph=schema_a.graph,
        equivalences=(),
        vertex_labels=dict(schema_a.vertex_labels),
        arrow_labels=dict(schema_a.arrow_labels),
    )
    t = Translation(
        source=schema_a,
        target=lawless,
        vmap={v: v for v in schema_a.graph.vertices},
        amap={
            a: Path(schema_a.graph.src[a], schema_a.graph.tar[a], (a,))
            for a in schema_a.graph.arrows
        },
    )
    report = check_translation(t, 8)
    assert report.ok
    assert all(
        d is Derivability.NOT_DERIVABLE_WITHIN_BOUND
        for _, d in report.equivalence_status
    )


def test_colimit_identifies_pair_with_projections(psi, db_a):
    # Union-find oracle over the span E <- A -> K (plus the site feeding
    # the ambient set): all four rows collapse to one class.
    classes = oracles.span_closure_classes(
        x=[AMBIENT_1952], y=[INCIDENTAL_1952], z=[PAIR_1952],
        f={PAIR_1952: AMBIENT_1952}, g={PAIR_1952: INCIDENTAL_1952},
    )
    assert len(classes) == 1
    out = sigma(psi, db_a, SigmaMode.COLIMIT)
    assert out.rows("A") == (PAIR_1952,)  # least row id of the single class
    assert validate(out).ok


def test_colimit_output_validates_against_target(psi, db_a):
    out = sigma(psi, db_a, SigmaMode.COLIMIT)
    report = validate(out)
    assert report.ok
    # including the new perception equivalence:
    assert any(str(eq) == "l = p.h" for eq in out.schema.equivalences)


@pytest.mark.parametrize("mode", list(SigmaMode))
def test_sigma_builds_one_closure_per_call(monkeypatch, psi, db_a, mode):
    import ologdb.migration as migration

    calls = []
    real = migration.congruence_closure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(migration, "congruence_closure", counting)
    sigma(psi, db_a, mode)
    assert len(calls) == 1


def test_sigma_refuses_invalid_instances(psi, db_a):
    columns = {a: dict(col) for a, col in db_a.columns.items()}
    del columns["c"][next(iter(db_a.rows("M")))]
    broken = make_instance(db_a.schema, db_a.tables, columns)
    from ologdb.instance import InvalidInstanceError

    with pytest.raises(InvalidInstanceError):
        sigma(psi, broken, SigmaMode.COLIMIT)


# -- colimit universal property ----------------------------------------------------


def _comma_copies_and_relations(F, I, d, max_len):
    """Brute-force the diagram over (F down-to d): copies and gluing pairs."""
    apex = F.target
    comp = oracles.naive_congruence(apex, max_len, apex.equivalences)
    objects = {}
    for v in F.source.graph.vertices:
        for key in oracles.dfs_paths(apex, F.vmap[v], d, max_len):
            objects.setdefault((v, comp[key]), key)
    copies = [
        (v, cls, row)
        for (v, cls) in objects
        for row in I.rows(v)
    ]
    relations = []
    for (v2, cls2), key2 in objects.items():
        for q in F.source.graph.arrows:
            if F.source.graph.tar[q] != v2:
                continue
            v1 = F.source.graph.src[q]
            image = F.amap[q]
            word = image.arrows + key2[1]
            if len(word) > max_len:
                continue
            key1 = (image.start, word)
            if key1 not in comp:
                continue
            cls1 = comp[key1]
            if (v1, cls1) not in objects:
                continue
            for row in I.rows(v1):
                relations.append(((v1, cls1, row), (v2, cls2, I.columns[q][row])))
    return copies, relations


def test_sigma_colimit_universal_property_small():
    rng = random.Random(0xFADE)
    checked = 0
    while checked < 12:
        source = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                                       n_equations=0, name="S", acyclic=True)
        target = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                                       n_equations=0, name="T", acyclic=True)
        F = _random_translation(rng, source, target, 1)
        if F is None:
            continue
        I = oracles.random_instance(rng, source, max_rows=2)
        if I.total_rows() == 0 or I.total_rows() > 6:
            continue
        out = sigma(F, I, SigmaMode.COLIMIT, max_len=3)
        checked += 1
        for d in target.graph.vertices:
            copies, relations = _comma_copies_and_relations(F, I, d, 3)
            # component count must agree with an independent BFS quotient
            comp = oracles._components(copies, set(relations))
            n_classes = len(set(comp.values()))
            assert len(out.rows(d)) == n_classes, (d, out.rows(d))
            # every brute-forced cocone into a 2-point set factors uniquely
            if not copies or len(copies) > 5:
                continue
            for assignment in itertools.product("xy", repeat=len(copies)):
                cocone = dict(zip(copies, assignment))
                if any(cocone[a] != cocone[b] for a, b in relations):
                    continue
                # classes are the comp-components; mediator must be constant
                per_class = {}
                ok = True
                for copy, value in cocone.items():
                    cls = comp[copy]
                    if per_class.setdefault(cls, value) != value:
                        ok = False
                assert ok, "cocone separates glued copies: quotient too coarse"


# -- translation JSON ---------------------------------------------------------------


def test_translation_json_roundtrip(phi, psi):
    for t in (phi, psi):
        data = translation_to_dict(t)
        again = translation_from_dict(data, t.source, t.target)
        assert translation_to_dict(again) == data


def test_trivial_image_needs_vmap(schema_a, schema_c):
    data = {
        "source": "A", "target": "C",
        "vmap": {},
        "amap": {"X": []},
    }
    with pytest.raises(TranslationError):
        translation_from_dict(data, schema_a, schema_c)


def test_compose_translations(phi, schema_b):
    ident = identity_translation(schema_b)
    both = compose_translations(phi, ident)
    assert both.vmap == dict(phi.vmap)
    assert {a: p.arrows for a, p in both.amap.items()} == {
        a: p.arrows for a, p in phi.amap.items()
    }
