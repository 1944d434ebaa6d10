from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ologdb.schema import (
    BoundTooSmallError,
    CompositionError,
    Derivability,
    Graph,
    ParallelismError,
    Path,
    PathEquivalence,
    Schema,
    UnknownVertexError,
    compose,
    congruence_closure,
    entails,
    enumerate_paths,
    trivial_path,
)

import oracles


# -- enumerate_paths -----------------------------------------------------------


def test_single_arrow_path_m_to_d(schema_a):
    paths = enumerate_paths(schema_a, "M", "D", 1)
    assert paths == [Path("M", "D", ("c",))]


def test_trivial_path_at_zero_bound(schema_a):
    for v in schema_a.graph.vertices:
        assert enumerate_paths(schema_a, v, v, 0) == [trivial_path(v)]


def test_five_chains_from_action_to_field(schema_s):
    # Frozen from the DFS oracle: the five T -> L chains at bound 6.
    oracle = oracles.dfs_paths(schema_s, "T", "L", 6)
    got = enumerate_paths(schema_s, "T", "L", 6)
    assert [(p.start, p.arrows) for p in got] == oracle
    assert sorted(p.arrows for p in got) == [
        ("f", "i2", "i5"),
        ("f", "z", "i6"),
        ("j", "c", "i1", "i5"),
        ("u", "i1", "i5"),
        ("w", "s", "c", "i1", "i5"),
    ]


def test_unknown_vertex_is_named_in_error(schema_a):
    with pytest.raises(UnknownVertexError) as exc:
        enumerate_paths(schema_a, "M", "nope", 3)
    assert "nope" in str(exc.value)


def test_lexicographic_order(schema_s):
    paths = enumerate_paths(schema_s, "T", "L", 6)
    keys = [p.arrows for p in paths]
    assert keys == sorted(keys)


def test_path_count_matches_matrix_power(schema_a, schema_s):
    for schema, bound in ((schema_a, 4), (schema_s, 5)):
        for v in schema.graph.vertices:
            for w in schema.graph.vertices:
                got = len(enumerate_paths(schema, v, w, bound))
                want = oracles.matrix_power_path_count(schema, v, w, bound)
                assert got == want, (schema.name, v, w)


def test_path_count_matches_matrix_power_random():
    rng = random.Random(1905)
    for _ in range(50):
        schema = oracles.random_schema(rng, max_vertices=4, max_arrows=6,
                                       n_equations=0)
        for v in schema.graph.vertices:
            for w in schema.graph.vertices:
                got = len(enumerate_paths(schema, v, w, 3))
                want = oracles.matrix_power_path_count(schema, v, w, 3)
                assert got == want


# -- compose ---------------------------------------------------------------------


def test_identity_laws(schema_a):
    p = schema_a.path(("j", "c"))
    assert compose(trivial_path("T"), p) == p
    assert compose(p, trivial_path("D")) == p


def test_compose_fulfillment_factorization(schema_a):
    j = schema_a.path(("j",))
    c = schema_a.path(("c",))
    q = compose(j, c)
    assert (q.start, q.end, q.arrows) == ("T", "D", ("j", "c"))


def test_compose_endpoint_mismatch(schema_a):
    c = schema_a.path(("c",))
    j = schema_a.path(("j",))
    with pytest.raises(CompositionError) as exc:
        compose(c, j)
    assert "D" in str(exc.value) and "T" in str(exc.value)


@given(st.data())
@settings(max_examples=100)
def test_compose_associative(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    schema = oracles.random_schema(rng, max_vertices=4, max_arrows=8,
                                   n_equations=0)
    words = oracles.all_dfs_paths(schema, 2)
    # Draw a composable triple word by word; every vertex has its trivial
    # path, so each draw has a candidate.
    pk = rng.choice(words)
    qk = rng.choice([w for w in words if w[0] == _end(schema, pk)])
    rk = rng.choice([w for w in words if w[0] == _end(schema, qk)])
    p, q, r = (_as_path(schema, k) for k in (pk, qk, rk))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def _end(schema: Schema, key) -> str:
    at = key[0]
    for a in key[1]:
        at = schema.graph.tar[a]
    return at


def _as_path(schema: Schema, key) -> Path:
    return schema.path(key[1], start=key[0]) if not key[1] else schema.path(key[1])


# -- congruence closure ------------------------------------------------------------


def test_no_axioms_gives_discrete_congruence():
    rng = random.Random(7)
    schema = oracles.random_schema(rng, max_vertices=4, max_arrows=6, n_equations=0)
    part = congruence_closure(schema, 3, axioms=())
    assert all(len(group) == 1 for group in part.classes())


def test_fulfills_class_in_premiere_schema(schema_a):
    part = congruence_closure(schema_a, 4)
    u = schema_a.path(("u",))
    jc = schema_a.path(("j", "c"))
    wsc = schema_a.path(("w", "s", "c"))
    assert part.same(u, jc)
    assert part.same(u, wsc)
    assert part.representative(jc) == u  # length-lex least


def _three_loops() -> Schema:
    # a = b.b.b = c at bound 3: a.a ~ a.c must be derived, though the
    # whiskering a.b.b.b of the axiom a = b.b.b exceeds the bound.
    graph = Graph(("v",), ("a", "b", "c"), dict.fromkeys("abc", "v"),
                  dict.fromkeys("abc", "v"))
    a, bbb, c = (Path("v", "v", tuple(word)) for word in ("a", "bbb", "c"))
    return Schema("L", graph, (PathEquivalence(a, bbb), PathEquivalence(bbb, c)))


def test_closure_matches_naive_oracle_random():
    rng = random.Random(0xA11CE)
    schemas = [
        oracles.random_schema(rng, max_vertices=5, max_arrows=7, n_equations=2)
        for _ in range(60)
    ]
    for schema in schemas + [_three_loops()]:
        bound = max(
            [3] + [max(len(eq.lhs), len(eq.rhs)) for eq in schema.equivalences]
        )
        part = congruence_closure(schema, bound)
        comp = oracles.naive_congruence(schema, bound, schema.equivalences)
        keys = sorted(comp)
        for i, k1 in enumerate(keys):
            p1 = _as_path(schema, k1)
            for k2 in keys[i + 1 :]:
                p2 = _as_path(schema, k2)
                if p1.start != p2.start or p1.end != p2.end:
                    continue
                assert part.same(p1, p2) == (comp[k1] == comp[k2]), (k1, k2)


def test_closure_is_equivalence_and_whisker_closed():
    rng = random.Random(99)
    for _ in range(25):
        schema = oracles.random_schema(rng, max_vertices=5, max_arrows=7,
                                       n_equations=2)
        bound = max(
            [3] + [max(len(eq.lhs), len(eq.rhs)) for eq in schema.equivalences]
        )
        part = congruence_closure(schema, bound)
        for group in part.classes():
            for p in group:
                assert part.same(p, p)
                for q in group:
                    assert part.same(q, p)
                    # whisker closure within the bound
                    for x in schema.graph.in_arrows(p.start):
                        wp = (schema.graph.src[x], (x,) + p.arrows)
                        wq = (schema.graph.src[x], (x,) + q.arrows)
                        if len(wp[1]) <= bound and len(wq[1]) <= bound:
                            assert part.same(_as_path(schema, wp),
                                             _as_path(schema, wq))
                    for y in schema.graph.out_arrows(p.end):
                        wp = (p.start, p.arrows + (y,))
                        wq = (q.start, q.arrows + (y,))
                        if len(wp[1]) <= bound and len(wq[1]) <= bound:
                            assert part.same(_as_path(schema, wp),
                                             _as_path(schema, wq))


def test_hom_matches_enumerate_and_dedupe_loop():
    # Reference: the enumerate-then-dedupe loop hom() replaced, which meets
    # classes in the order of their lexicographically least arrow word.
    rng = random.Random(0x40B)
    for _ in range(40):
        schema = oracles.random_schema(rng, max_vertices=5, max_arrows=7,
                                       n_equations=3)
        bound = max(
            [3] + [max(len(eq.lhs), len(eq.rhs)) for eq in schema.equivalences]
        )
        part = congruence_closure(schema, bound)
        for x in schema.graph.vertices:
            for y in schema.graph.vertices:
                reps, seen = [], set()
                for p in enumerate_paths(schema, x, y, bound):
                    rep = part.representative(p)
                    if rep.key() not in seen:
                        seen.add(rep.key())
                        reps.append(rep)
                assert list(part.hom(x, y)) == reps, (x, y)


def test_hom_rejects_unknown_vertex(schema_a):
    with pytest.raises(UnknownVertexError):
        congruence_closure(schema_a, 3).hom("M", "nowhere")


def test_bound_smaller_than_axiom_is_an_error(schema_s):
    with pytest.raises(BoundTooSmallError) as exc:
        congruence_closure(schema_s, 2)
    assert "w.s.c" in str(exc.value) or "i1" in str(exc.value)


# -- entails -------------------------------------------------------------------------


def test_fulfillment_chain_derivable(schema_a):
    eq = PathEquivalence(schema_a.path(("u",)), schema_a.path(("w", "s", "c")))
    assert entails(schema_a, eq, 4) is Derivability.DERIVABLE


def test_reflexivity_derivable_at_any_bound(schema_a):
    p = schema_a.path(("w", "s", "c"))
    assert entails(schema_a, PathEquivalence(p, p), 0) is Derivability.DERIVABLE


def test_no_left_cancellation(schema_s):
    # With only the realization-factoring chain as axioms, the bare
    # factorization j = w.s is not derivable: nothing strips a prefix.
    e1 = (
        PathEquivalence(schema_s.path(("u",)), schema_s.path(("j", "c"))),
        PathEquivalence(schema_s.path(("u",)), schema_s.path(("w", "s", "c"))),
    )
    query = PathEquivalence(schema_s.path(("j",)), schema_s.path(("w", "s")))
    got = entails(schema_s, query, 8, axioms=e1)
    assert got is Derivability.NOT_DERIVABLE_WITHIN_BOUND


def test_non_parallel_query_rejected(schema_a):
    with pytest.raises(ParallelismError):
        entails(
            schema_a,
            PathEquivalence(schema_a.path(("c",)), schema_a.path(("j",))),
            4,
        )


def test_entails_monotone_in_bound_and_axioms():
    rng = random.Random(0xBEEF)
    for _ in range(40):
        schema = oracles.random_schema(rng, max_vertices=4, max_arrows=6,
                                       n_equations=2)
        if not schema.equivalences:
            continue
        base = max(len(eq.lhs) for eq in schema.equivalences)
        base = max(
            base, max(len(eq.rhs) for eq in schema.equivalences), 2
        )
        part = congruence_closure(schema, base)
        sample = [p for group in part.classes() for p in group][:12]
        for p in sample:
            for q in sample:
                if p.start != q.start or p.end != q.end:
                    continue
                eq = PathEquivalence(p, q)
                low = entails(schema, eq, base)
                high = entails(schema, eq, base + 1)
                if low is Derivability.DERIVABLE:
                    assert high is Derivability.DERIVABLE
                fewer = entails(schema, eq, base, axioms=schema.equivalences[:1])
                if fewer is Derivability.DERIVABLE:
                    assert low is Derivability.DERIVABLE
