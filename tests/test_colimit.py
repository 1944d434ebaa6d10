from __future__ import annotations

import itertools
import random

import pytest

from ologdb.colimit import (
    PushoutSetupError,
    SchemaPushout,
    UniversalOutcome,
    pushout_schemas,
    pushout_sets,
    verify_universal,
)
from ologdb.migration import Translation, check_translation
from ologdb.schema import Path, PathEquivalence, Schema, Graph

import oracles
from conftest import (
    AMBIENT_1952,
    ARENA_1952,
    INSTRUCTION,
    PAIR_1952,
    SITE_1952,
    T_1952,
)


# -- pushout of sets ---------------------------------------------------------------


def test_empty_apex_gives_coproduct():
    po = pushout_sets(x=["a", "b"], y=["c"], z=[], f={}, g={})
    assert len(po.classes) == 3
    assert all(len(c) == 1 for c in po.classes)


def test_point_gluing():
    po = pushout_sets(x=["x"], y=["y"], z=["z"], f={"z": "x"}, g={"z": "y"})
    assert len(po.classes) == 1
    assert po.classes[0] == frozenset({("x", "x"), ("y", "y"), ("z", "z")})


def test_inclusions_coequalize():
    po = pushout_sets(
        x=["x1", "x2"], y=["y1", "y2"], z=["z1", "z2"],
        f={"z1": "x1", "z2": "x1"}, g={"z1": "y1", "z2": "y2"},
    )
    for z, fx in (("z1", "x1"), ("z2", "x1")):
        assert po.include_x[fx] == po.class_index("z", z)
    for z, gy in (("z1", "y1"), ("z2", "y2")):
        assert po.include_y[gy] == po.class_index("z", z)


def test_partition_covers_exactly_random():
    rng = random.Random(0xD15C0)
    for _ in range(100):
        x = [f"x{i}" for i in range(rng.randint(0, 4))]
        y = [f"y{i}" for i in range(rng.randint(0, 4))]
        z = [f"z{i}" for i in range(rng.randint(0, 4))] if x and y else []
        f = {e: rng.choice(x) for e in z}
        g = {e: rng.choice(y) for e in z}
        po = pushout_sets(x, y, z, f, g)
        everything = [e for cls in po.classes for e in cls]
        assert sorted(everything) == sorted(
            [("x", e) for e in x] + [("y", e) for e in y] + [("z", e) for e in z]
        )
        oracle = oracles.span_closure_classes(x, y, z, f, g)
        assert sorted(sorted(c) for c in po.classes) == sorted(
            sorted(c) for c in oracle
        )


def test_totality_is_checked():
    with pytest.raises(PushoutSetupError):
        pushout_sets(x=["x"], y=["y"], z=["z"], f={}, g={"z": "y"})


# -- universal property --------------------------------------------------------------


SPAN = dict(
    x=["x1", "x2"], y=["y1", "y2"], z=["z"],
    f={"z": "x1"}, g={"z": "y1"},
)


def test_pushout_itself_mediates_identically():
    po = pushout_sets(**SPAN)
    j2 = {e: str(po.include_x[e]) for e in SPAN["x"]}
    j1 = {e: str(po.include_y[e]) for e in SPAN["y"]}
    check = verify_universal(po, SPAN["f"], SPAN["g"],
                             [str(i) for i in range(len(po.classes))], j1, j2)
    assert check.outcome is UniversalOutcome.MEDIATOR_EXISTS
    assert check.mediator == {i: str(i) for i in range(len(po.classes))}


def test_non_commuting_candidate_is_no_cone():
    po = pushout_sets(**SPAN)
    j2 = {"x1": "p", "x2": "p"}
    j1 = {"y1": "q", "y2": "q"}  # j1(g(z)) = q != p = j2(f(z))
    check = verify_universal(po, SPAN["f"], SPAN["g"], ["p", "q"], j1, j2)
    assert check.outcome is UniversalOutcome.NO_CONE


def test_mediator_matches_exhaustive_search_small_candidates():
    po = pushout_sets(**SPAN)
    pset = ["p0", "p1", "p2"]
    for j2_vals in itertools.product(pset, repeat=2):
        for j1_vals in itertools.product(pset, repeat=2):
            j2 = dict(zip(SPAN["x"], j2_vals))
            j1 = dict(zip(SPAN["y"], j1_vals))
            check = verify_universal(po, SPAN["f"], SPAN["g"], pset, j1, j2)
            # independent search over all maps classes -> P
            solutions = []
            for values in itertools.product(pset, repeat=len(po.classes)):
                u = dict(enumerate(values))
                if all(u[po.include_x[e]] == j2[e] for e in SPAN["x"]) and all(
                    u[po.include_y[e]] == j1[e] for e in SPAN["y"]
                ):
                    solutions.append(u)
            if j1[SPAN["g"]["z"]] != j2[SPAN["f"]["z"]]:
                assert check.outcome is UniversalOutcome.NO_CONE
            else:
                assert check.outcome is UniversalOutcome.MEDIATOR_EXISTS
                assert len(solutions) == 1
                assert check.mediator == solutions[0]


# -- pushout of schemas ----------------------------------------------------------------


def _empty_schema(name="0"):
    return Schema(name=name, graph=Graph((), (), {}, {}))


def test_empty_apex_pushout_is_disjoint_union(schema_b, schema_c):
    empty = _empty_schema()
    phi0 = Translation(empty, schema_b, {}, {})
    psi0 = Translation(empty, schema_c, {}, {})
    po = pushout_schemas(phi0, psi0)
    assert len(po.result.graph.vertices) == len(schema_b.graph.vertices) + len(
        schema_c.graph.vertices
    )
    assert len(po.result.graph.arrows) == len(schema_b.graph.arrows) + len(
        schema_c.graph.arrows
    )
    assert not po.coequalizers


FIGURE_VERTICES = {
    # amalgam vertex -> tagged member that identifies the computed class
    "M": ("b", "M"),
    "P": ("b", "J"),
    "D": ("b", "D"),
    "T": ("b", "T"),
    "G": ("b", "G"),
    "Z": ("b", "Z"),
    "A": ("b", "A"),
    "B": ("b", "B"),
    "Q": ("b", "Q"),
    "E_B": ("b", "E"),
    "K_B": ("b", "K"),
}

FIGURE_ARROWS = {
    # amalgam arrow -> a generator of the computed class
    "a": "b.a", "t": "b.t", "c": "b.c", "j": "b.j", "f": "b.f", "d": "b.d",
    "l": "b.l", "e": "b.e", "P": "b.P", "s": "b.s", "u": "b.u", "w": "b.w",
    "X_B": "b.X", "Y_B": "b.Y", "p_B": "b.p", "h_B": "b.h",
    "p_C": "c.p", "h_C": "c.h",
}

MERGED_ARROWS = {"a", "t", "c", "j", "f", "d", "l", "e", "P", "s", "u", "w"}


def _arrow_classes(po: SchemaPushout):
    """Generators merged along length-1 coequalizing equations."""
    from ologdb.schema import UnionFind

    uf = UnionFind()
    for a in po.result.graph.arrows:
        uf.add(a)
    for eq in po.coequalizers:
        if len(eq.lhs) == 1 and len(eq.rhs) == 1:
            uf.union(eq.lhs.arrows[0], eq.rhs.arrows[0])
    return uf.groups()


def test_core_span_pushout_matches_printed_amalgam(phi_core, psi_core, schema_s):
    po = pushout_schemas(phi_core, psi_core)
    result = po.result

    # Vertex classes in bijection with the printed amalgam minus W/L.
    assert len(result.graph.vertices) == 11
    vclass = {}
    for fig_vertex, (tag, vid) in FIGURE_VERTICES.items():
        leg = po.inject_b if tag == "b" else po.inject_c
        vclass[fig_vertex] = leg.vmap[vid]
    assert len(set(vclass.values())) == 11

    # Arrows: one generator per side, exactly once.
    assert len(result.graph.arrows) == 30
    assert sorted(result.graph.arrows) == sorted(
        [f"b.{a}" for a in phi_core.target.graph.arrows]
        + [f"c.{a}" for a in psi_core.target.graph.arrows]
    )

    # Modulo the coequalizers, the generators are the printed 18 arrows,
    # endpoint for endpoint.
    groups = _arrow_classes(po)
    rep_of = {m: rep for rep, members in groups.items() for m in members}
    assert len(groups) == 18
    fig = schema_s
    for fig_arrow, generator in FIGURE_ARROWS.items():
        assert vclass[fig.graph.src[fig_arrow]] == result.graph.src[generator]
        assert vclass[fig.graph.tar[fig_arrow]] == result.graph.tar[generator]
    for merged in MERGED_ARROWS:
        assert rep_of[f"b.{merged}"] == rep_of[f"c.{merged}"]
    for solo_b, solo_c in (("b.X", "c.p"), ("b.Y", "c.h")):
        assert rep_of[solo_b] != rep_of[solo_c]

    # Both injections are lawful, with all equivalence images derivable.
    for leg in (po.inject_b, po.inject_c):
        report = check_translation(leg, 8)
        assert report.ok and not report.hard_errors


def test_core_span_injections_coequalize(phi_core, psi_core):
    po = pushout_schemas(phi_core, psi_core)
    from ologdb.migration import compose_translations
    from ologdb.schema import congruence_closure

    left = compose_translations(phi_core, po.inject_b)
    right = compose_translations(psi_core, po.inject_c)
    assert left.vmap == right.vmap
    part = congruence_closure(po.result, 8)
    for a in phi_core.source.graph.arrows:
        assert part.same(left.amap[a], right.amap[a])
        assert PathEquivalence(left.amap[a], right.amap[a]) in po.result.equivalences


def test_full_span_pushout_collapses_sound_vertices(phi, psi):
    # The literal span merges the pair vertex with both projections'
    # targets: the strict quotient leaves nine vertex classes and the
    # projection generators become loops coequalized with identities.
    po = pushout_schemas(phi, psi)
    assert len(po.result.graph.vertices) == 9
    merged = po.inject_b.vmap["A"]
    assert po.inject_b.vmap["E"] == merged == po.inject_b.vmap["K"]
    trivias = [eq for eq in po.coequalizers if eq.rhs.is_trivial or eq.lhs.is_trivial]
    assert {e.lhs.arrows or e.rhs.arrows for e in trivias} == {("b.X",), ("b.Y",)}


def test_pushout_rejects_broken_spans(schema_a, schema_b, phi, psi):
    vmap = dict(phi.vmap)
    vmap["Q"] = "no-such-vertex"
    broken = Translation(schema_a, schema_b, vmap, dict(phi.amap))
    with pytest.raises(PushoutSetupError):
        pushout_schemas(broken, psi)


def test_pushout_numbers_colliding_class_names():
    # The apex vertex "b.X" glues B's Y to C's W, so that class is named
    # "b.X"; B's unhit X falls back to the same name "b.X".  The class that
    # sorts first (X's) keeps the name, the other is numbered.
    apex = Schema(name="Z", graph=Graph(("b.X",), (), {}, {}))
    b = Schema(name="B", graph=Graph(("X", "Y"), (), {}, {}),
               vertex_labels={"X": "x", "Y": "y"})
    c = Schema(name="C", graph=Graph(("W",), (), {}, {}), vertex_labels={"W": "w"})
    po = pushout_schemas(Translation(apex, b, {"b.X": "Y"}, {}),
                         Translation(apex, c, {"b.X": "W"}, {}))
    assert po.result.graph.vertices == ("b.X", "b.X#2")
    assert po.result.vertex_labels == {"b.X": "x", "b.X#2": "w"}
    assert dict(po.inject_b.vmap) == {"X": "b.X", "Y": "b.X#2"}
    assert dict(po.inject_c.vmap) == {"W": "b.X#2"}


# -- random spans vs an independent construction -----------------------------------------


def _strict_pushout_oracle(phi: Translation, psi: Translation):
    """Build the quotient schema by hand: BFS vertex classes, tagged arrows."""
    B, C, apex = phi.target, psi.target, phi.source
    nodes = [("b", v) for v in B.graph.vertices] + [("c", v) for v in C.graph.vertices]
    edges = {
        (("b", phi.vmap[v]), ("c", psi.vmap[v])) for v in apex.graph.vertices
    }
    comp = oracles._components(nodes, edges)  # type: ignore[arg-type]
    names = {}
    for n, c in comp.items():
        names.setdefault(c, f"K{c}")
    vertices = tuple(sorted(set(names.values())))
    arrows, src, tar = [], {}, {}
    for tag, side in (("b", B), ("c", C)):
        for a in side.graph.arrows:
            aid = f"{tag}.{a}"
            arrows.append(aid)
            src[aid] = names[comp[(tag, side.graph.src[a])]]
            tar[aid] = names[comp[(tag, side.graph.tar[a])]]
    schema = Schema(name="oracle", graph=Graph(vertices, tuple(arrows), src, tar))

    def transport(tag, side, p):
        return schema.path(
            tuple(f"{tag}.{a}" for a in p.arrows),
            start=names[comp[(tag, p.start)]],
        )

    eqs = []
    for tag, side in (("b", B), ("c", C)):
        for eq in side.equivalences:
            eqs.append(PathEquivalence(transport(tag, side, eq.lhs),
                                       transport(tag, side, eq.rhs)))
    for a in apex.graph.arrows:
        lhs = transport("b", B, phi.amap[a])
        rhs = transport("c", C, psi.amap[a])
        if lhs != rhs:
            eqs.append(PathEquivalence(lhs, rhs))
    return Schema(name="oracle", graph=schema.graph, equivalences=tuple(eqs)), (
        lambda tag, v: names[comp[(tag, v)]]
    )


def _random_span(rng):
    from test_migration import _random_translation

    apex = oracles.random_schema(rng, max_vertices=2, max_arrows=2,
                                 n_equations=0, name="Z", acyclic=True)
    b = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                              n_equations=1, name="Bs", acyclic=True)
    c = oracles.random_schema(rng, max_vertices=3, max_arrows=3,
                              n_equations=1, name="Cs", acyclic=True)
    phi = _random_translation(rng, apex, b, 1)
    psi = _random_translation(rng, apex, c, 1)
    if phi is None or psi is None:
        return None
    return phi, psi


def test_random_span_matches_construction_oracle():
    rng = random.Random(0x50AD)
    done = 0
    while done < 20:
        span = _random_span(rng)
        if span is None:
            continue
        phi, psi = span
        po = pushout_schemas(phi, psi)
        oracle_schema, oracle_class = _strict_pushout_oracle(phi, psi)
        done += 1

        # vertex classes correspond via the tagged members
        mapping = {}
        for tag, side in (("b", phi.target), ("c", psi.target)):
            leg = po.inject_b if tag == "b" else po.inject_c
            for v in side.graph.vertices:
                mapping.setdefault(oracle_class(tag, v), set()).add(leg.vmap[v])
        assert all(len(s) == 1 for s in mapping.values())
        assert len(mapping) == len(po.result.graph.vertices)

        # hom class counts agree under the naive congruence on both sides
        bound = 4
        comp_engine = oracles.naive_congruence(po.result, bound,
                                               po.result.equivalences)
        comp_oracle = oracles.naive_congruence(oracle_schema, bound,
                                               oracle_schema.equivalences)

        def hom_counts(schema, comp):
            counts = {}
            for v in schema.graph.vertices:
                for w in schema.graph.vertices:
                    ids = {
                        comp[key]
                        for key in oracles.dfs_paths(schema, v, w, bound)
                    }
                    counts[(v, w)] = len(ids)
            return counts

        engine_counts = hom_counts(po.result, comp_engine)
        oracle_counts = hom_counts(oracle_schema, comp_oracle)
        rename = {k: next(iter(s)) for k, s in mapping.items()}
        for (v, w), n in oracle_counts.items():
            assert engine_counts[(rename[v], rename[w])] == n


# -- chained pushouts on the migrated premiere rows ---------------------------------------


def test_pasting_of_chained_pushouts(db_s):
    # Route one: glue the instruction and arena tables along the action
    # (the typology), then glue the ambient table onto it along the arena.
    # Route two: glue instruction and ambient tables along the action
    # directly, composing through the arena.  Both partitions must induce
    # the same equivalence on the shared rows.
    I = db_s
    d_rows = list(I.rows("D"))
    g_rows = list(I.rows("G"))
    t_rows = list(I.rows("T"))
    e_rows = list(I.rows("E_B"))

    u = {r: I.columns["u"][r] for r in t_rows}
    f = {r: I.columns["f"][r] for r in t_rows}
    z = {r: I.columns["z"][r] for r in g_rows}

    typology = pushout_sets(x=d_rows, y=g_rows, z=t_rows, f=u, g=f)
    w_names = [str(i) for i in range(len(typology.classes))]
    field_chained = pushout_sets(
        x=w_names,
        y=e_rows,
        z=g_rows,
        f={r: str(typology.include_y[r]) for r in g_rows},
        g=z,
    )
    field_direct = pushout_sets(
        x=d_rows, y=e_rows, z=t_rows,
        f=u, g={r: z[f[r]] for r in t_rows},
    )

    def induced(po, unpack_w=None):
        # restrict the partition to D rows and ambient rows
        out = []
        for cls in po.classes:
            flat = set()
            for tag, e in cls:
                if unpack_w and tag == "x":
                    flat |= {
                        m for m in unpack_w[int(e)]
                        if m[1] in d_rows and m[0] == "x"
                    }
                elif e in d_rows and tag in ("x",):
                    flat.add(("x", e))
                if e in e_rows and tag == "y":
                    flat.add(("y", e))
            if flat:
                out.append(frozenset(flat))
        return sorted(out, key=lambda s: sorted(s))

    chained = induced(field_chained, unpack_w=typology.classes)
    direct = induced(field_direct)
    assert chained == direct


def test_pasting_of_chained_pushouts_random():
    # Same two routes over random row sets and maps; the induced partitions
    # on the outer tables must agree (horizontal pasting of pushout squares).
    rng = random.Random(0x9A57E)
    for _ in range(60):
        t_rows = [f"t{i}" for i in range(rng.randint(1, 4))]
        d_rows = [f"d{i}" for i in range(rng.randint(1, 3))]
        g_rows = [f"g{i}" for i in range(rng.randint(1, 3))]
        e_rows = [f"e{i}" for i in range(rng.randint(1, 3))]
        u = {r: rng.choice(d_rows) for r in t_rows}
        f = {r: rng.choice(g_rows) for r in t_rows}
        z = {r: rng.choice(e_rows) for r in g_rows}

        typology = pushout_sets(x=d_rows, y=g_rows, z=t_rows, f=u, g=f)
        w_names = [str(i) for i in range(len(typology.classes))]
        chained_po = pushout_sets(
            x=w_names, y=e_rows, z=g_rows,
            f={r: str(typology.include_y[r]) for r in g_rows}, g=z,
        )
        direct_po = pushout_sets(
            x=d_rows, y=e_rows, z=t_rows, f=u,
            g={r: z[f[r]] for r in t_rows},
        )

        def trace(po, unpack_w=None):
            out = []
            for cls in po.classes:
                flat = set()
                for tag, e in cls:
                    if unpack_w is not None and tag == "x":
                        flat |= {m for m in unpack_w[int(e)]
                                 if m[0] == "x" and m[1] in d_rows}
                    elif tag == "x" and e in d_rows:
                        flat.add(("x", e))
                    if tag == "y" and e in e_rows:
                        flat.add(("y", e))
                if flat:
                    out.append(frozenset(flat))
            # a class may have split members merged elsewhere; normalize by
            # re-merging overlapping sets (they are already disjoint here)
            return sorted(out, key=lambda s: sorted(s))

        assert trace(chained_po, unpack_w=typology.classes) == trace(direct_po)
