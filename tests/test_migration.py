from __future__ import annotations

import itertools
import random

import pytest

from ologdb.instance import instance_to_json, make_instance, validate
from ologdb.migration import (
    BoundOverflowError,
    SigmaMode,
    Translation,
    TranslationError,
    check_translation,
    compose_translations,
    identity_translation,
    sigma,
    translation_from_dict,
    translation_to_dict,
)
from ologdb.schema import (
    Derivability,
    Graph,
    OlogError,
    Path,
    PathEquivalence,
    Schema,
    UnionFind,
    compose,
    congruence_closure,
    trivial_path,
)

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


def _reference_sigma_colimit(F, I, max_len):
    """Σ colimit keyed by (d, v, f, row) copies, one path lookup per row.

    The implementation `sigma` used before copies became integer blocks;
    its output and errors are the reference for the block version.
    """
    target = F.target
    part = congruence_closure(target, max_len)
    uf = UnionFind()
    copies = {}
    for d in target.graph.vertices:
        copies[d] = []
        for v in F.source.graph.vertices:
            for f in part.hom(F.vertex_image(v), d):
                for row in I.rows(v):
                    uf.add((d, v, f.key(), row))
                    copies[d].append((v, f, row))
    for d in target.graph.vertices:
        for q in F.source.graph.arrows:
            v1, v2 = F.source.graph.src[q], F.source.graph.tar[q]
            fq = F.arrow_image(q)
            for f2 in part.hom(F.vertex_image(v2), d):
                composite = compose(fq, f2)
                if composite not in part:
                    continue
                f1 = part.representative(composite)
                for row in I.rows(v1):
                    uf.union((d, v1, f1.key(), row), (d, v2, f2.key(), I.cell(q, row)))
    class_members = {}
    for d in target.graph.vertices:
        groups = {}
        for v, f, row in copies[d]:
            groups.setdefault(uf.find((d, v, f.key(), row)), []).append((v, f, row))
        class_members[d] = groups
    class_id = {}
    tables = {}
    for d in target.graph.vertices:
        anchor = trivial_path(d)
        named = []
        for root, members in class_members[d].items():
            direct = [row for _, f, row in members if f == anchor]
            least = min(direct) if direct else min(row for _, _, row in members)
            named.append((least, root))
        named.sort(key=lambda t: (t[0], str(t[1])))
        used = {}
        tables[d] = []
        for least, root in named:
            n = used.get(least, 0)
            used[least] = n + 1
            rid = least if n == 0 else f"{least}#{n + 1}"
            class_id[root] = rid
            tables[d].append(rid)
    columns = {}
    for g in target.graph.arrows:
        d, d2 = target.graph.src[g], target.graph.tar[g]
        g_path = Path(d, d2, (g,))
        col = {}
        for root, members in class_members[d].items():
            values = set()
            for v, f, row in members:
                composite = compose(f, g_path)
                if composite not in part:
                    continue
                f2 = part.representative(composite)
                values.add(uf.find((d2, v, f2.key(), row)))
            if not values:
                raise BoundOverflowError(
                    f"no member of class {class_id[root]!r} at {d!r} can follow "
                    f"arrow {g!r} within max_len={max_len}; raise the bound"
                )
            if len(values) > 1:
                raise BoundOverflowError(
                    f"column {g!r} is ambiguous for class {class_id[root]!r}; "
                    f"the bound max_len={max_len} truncated the comma category"
                )
            col[class_id[root]] = class_id[values.pop()]
        columns[g] = col
    return make_instance(target, tables, columns)


def _colimit_outcome(run):
    try:
        return instance_to_json(run())
    except OlogError as exc:
        return (type(exc).__name__, str(exc))


def test_sigma_colimit_matches_reference_on_fixtures(psi, phi, db_a, db_a_1970):
    for F, I in ((psi, db_a), (phi, db_a), (phi, db_a_1970)):
        for bound in (8, 3, 2, 1):
            got = _colimit_outcome(lambda: sigma(F, I, SigmaMode.COLIMIT, bound))
            assert got == _colimit_outcome(
                lambda: _reference_sigma_colimit(F, I, bound)
            ), (F.source.name, bound)


def test_sigma_colimit_matches_reference_random():
    rng = random.Random(11)
    checked = errors = ties = 0
    while checked < 320:
        target = oracles.random_schema(rng, max_vertices=3, max_arrows=4,
                                       n_equations=rng.randint(1, 2), name="T")
        source = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                                       n_equations=0, name="S",
                                       acyclic=rng.random() < 0.5)
        F = _random_translation(rng, source, target, 2)
        if F is None:
            continue
        I = oracles.random_instance(rng, source, max_rows=3)
        bound = rng.randint(2, 4)
        got = _colimit_outcome(lambda: sigma(F, I, SigmaMode.COLIMIT, bound))
        want = _colimit_outcome(lambda: _reference_sigma_colimit(F, I, bound))
        assert got == want, (target, source, F.vmap, F.amap, bound)
        checked += 1
        errors += isinstance(want, tuple)
        ties += isinstance(want, str) and "#" in want
    # Both branches are exercised: failures, and classes sharing a least row.
    assert errors and ties


def _one_vertex_schema(name, loops, equivalences=()):
    return Schema(name=name,
                  graph=Graph(("v0",), loops, {a: "v0" for a in loops},
                              {a: "v0" for a in loops}),
                  equivalences=equivalences)


def test_sigma_colimit_orders_tied_classes_by_root_copy():
    # Row v0r0 has a copy at id(v0) and one at a0, never glued, so two
    # classes share the least row.  The a0 copy's key sorts first.
    source = _one_vertex_schema("S", ())
    target = _one_vertex_schema("T", ("a0",), (PathEquivalence(
        Path("v0", "v0", ("a0", "a0")), Path("v0", "v0", ("a0",))),))
    F = Translation(source, target, {"v0": "v0"}, {})
    I = make_instance(source, {"v0": ["v0r0", "v0r1"]}, {})
    out = sigma(F, I, SigmaMode.COLIMIT, max_len=3)
    assert out.rows("v0") == ("v0r0", "v0r0#2", "v0r1", "v0r1#2")
    assert out.columns["a0"] == {"v0r0": "v0r0", "v0r0#2": "v0r0",
                                 "v0r1": "v0r1", "v0r1#2": "v0r1"}
    assert instance_to_json(out) == instance_to_json(
        _reference_sigma_colimit(F, I, 3))


def test_sigma_colimit_no_member_can_follow_within_bound():
    source = _one_vertex_schema("S", ())
    target = Schema(name="T", graph=Graph(("v0", "v1"), ("a0",),
                                          {"a0": "v0"}, {"a0": "v0"}))
    F = Translation(source, target, {"v0": "v0"}, {})
    I = make_instance(source, {"v0": ["v0r0", "v0r1"]}, {})
    with pytest.raises(BoundOverflowError) as exc:
        sigma(F, I, SigmaMode.COLIMIT, max_len=2)
    assert str(exc.value) == (
        "no member of class 'v0r0' at 'v0' can follow arrow 'a0' within "
        "max_len=2; raise the bound"
    )


def test_sigma_colimit_ambiguous_column_within_bound():
    source = _one_vertex_schema("S", ("a0", "a1"))
    target = _one_vertex_schema("T", ("a0", "a1"), (PathEquivalence(
        Path("v0", "v0", ("a0", "a1")), Path("v0", "v0", ("a0", "a0", "a0"))),))
    F = Translation(source, target, {"v0": "v0"},
                    {"a0": Path("v0", "v0", ("a0",)), "a1": trivial_path("v0")})
    I = make_instance(source, {"v0": ["v0r0"]},
                      {"a0": {"v0r0": "v0r0"}, "a1": {"v0r0": "v0r0"}})
    with pytest.raises(BoundOverflowError) as exc:
        sigma(F, I, SigmaMode.COLIMIT, max_len=3)
    assert str(exc.value) == (
        "column 'a0' is ambiguous for class 'v0r0'; the bound max_len=3 "
        "truncated the comma category"
    )


def test_sigma_colimit_path_work_does_not_grow_with_rows(monkeypatch, psi, db_a):
    import ologdb.migration as migration

    calls = []
    real = migration.compose

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    def renamed(k):
        def name(row):
            return f"{row} [{k}]"
        return ({v: [name(r) for r in rows] for v, rows in db_a.tables.items()},
                {a: {name(r): name(x) for r, x in col.items()}
                 for a, col in db_a.columns.items()})

    copies = [renamed(k) for k in range(10)]
    tables = {v: [r for t, _ in copies for r in t[v]] for v in db_a.tables}
    columns = {a: {r: x for _, c in copies for r, x in c[a].items()}
               for a in db_a.columns}
    big = make_instance(db_a.schema, tables, columns)
    assert big.total_rows() == 10 * db_a.total_rows()

    monkeypatch.setattr(migration, "compose", counting)
    sigma(psi, db_a, SigmaMode.COLIMIT)
    small_calls = len(calls)
    calls.clear()
    sigma(psi, big, SigmaMode.COLIMIT)
    assert small_calls > 0 and len(calls) == small_calls


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
