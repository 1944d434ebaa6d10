"""Independent reference implementations used to check the engine.

Everything here recomputes results from first principles with different
algorithms and bookkeeping than the library: recursive path enumeration,
pair-set saturation for congruence, BFS transitive closure, dict-based
matrix powers.  Expected test values are frozen from these, never from the
code under test.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from ologdb.schema import (
    Graph,
    Path,
    PathEquivalence,
    Schema,
    trivial_path,
)

PathKey = Tuple[str, Tuple[str, ...]]


# -- path enumeration ----------------------------------------------------------


def dfs_paths(schema: Schema, source: str, target: str, max_len: int) -> List[PathKey]:
    """All bounded chains source -> target by explicit depth-first search."""
    out: List[PathKey] = []

    def go(at: str, word: Tuple[str, ...]) -> None:
        if at == target:
            out.append((source, word))
        if len(word) >= max_len:
            return
        for a in schema.graph.arrows:
            if schema.graph.src[a] == at:
                go(schema.graph.tar[a], word + (a,))

    go(source, ())
    return sorted(out)


def all_dfs_paths(schema: Schema, max_len: int) -> List[PathKey]:
    out: List[PathKey] = []
    for v in schema.graph.vertices:
        for w in schema.graph.vertices:
            out.extend(dfs_paths(schema, v, w, max_len))
    return sorted(set(out))


def matrix_power_path_count(schema: Schema, source: str, target: str,
                            max_len: int) -> int:
    """Count bounded chains with powers of the multigraph adjacency matrix."""
    verts = list(schema.graph.vertices)
    adj: Dict[Tuple[str, str], int] = {}
    for a in schema.graph.arrows:
        key = (schema.graph.src[a], schema.graph.tar[a])
        adj[key] = adj.get(key, 0) + 1

    def mat_mul(m1: Dict[Tuple[str, str], int], m2: Dict[Tuple[str, str], int]):
        out: Dict[Tuple[str, str], int] = {}
        for (i, k1), v1 in m1.items():
            for (k2, j), v2 in m2.items():
                if k1 == k2:
                    out[(i, j)] = out.get((i, j), 0) + v1 * v2
        return out

    total = 1 if source == target else 0  # the trivial path
    power = {(v, v): 1 for v in verts}
    for _ in range(max_len):
        power = mat_mul(power, adj)
        total += power.get((source, target), 0)
    return total


# -- congruence by pair-set saturation ------------------------------------------


def _components(nodes: Sequence[PathKey],
                edges: Set[Tuple[PathKey, PathKey]]) -> Dict[PathKey, int]:
    neighbors: Dict[PathKey, List[PathKey]] = {n: [] for n in nodes}
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    comp: Dict[PathKey, int] = {}
    cid = 0
    for n in nodes:
        if n in comp:
            continue
        stack = [n]
        comp[n] = cid
        while stack:
            cur = stack.pop()
            for nxt in neighbors[cur]:
                if nxt not in comp:
                    comp[nxt] = cid
                    stack.append(nxt)
        cid += 1
    return comp


def naive_congruence(
    schema: Schema, max_len: int, axioms: Sequence[PathEquivalence]
) -> Dict[PathKey, int]:
    """Saturate whiskering rules over an explicit edge set until fixpoint.

    Returns a component id per bounded path key.
    """
    nodes = all_dfs_paths(schema, max_len)
    node_set = set(nodes)
    ends: Dict[PathKey, str] = {}
    for start, word in nodes:
        at = start
        for a in word:
            at = schema.graph.tar[a]
        ends[(start, word)] = at

    edges: Set[Tuple[PathKey, PathKey]] = set()
    for eq in axioms:
        edges.add((eq.lhs.key(), eq.rhs.key()))

    while True:
        comp = _components(nodes, edges)
        new_edges: Set[Tuple[PathKey, PathKey]] = set()
        by_comp: Dict[int, List[PathKey]] = {}
        for n, c in comp.items():
            by_comp.setdefault(c, []).append(n)
        for members in by_comp.values():
            if len(members) < 2:
                continue
            for i, m1 in enumerate(members):
                for m2 in members[i + 1 :]:
                    start = m1[0]
                    end = ends[m1]
                    for x in schema.graph.arrows:
                        if schema.graph.tar[x] == start:
                            w1 = (schema.graph.src[x], (x,) + m1[1])
                            w2 = (schema.graph.src[x], (x,) + m2[1])
                            if w1 in node_set and w2 in node_set:
                                if comp[w1] != comp[w2]:
                                    new_edges.add((w1, w2))
                        if schema.graph.src[x] == end:
                            w1 = (m1[0], m1[1] + (x,))
                            w2 = (m2[0], m2[1] + (x,))
                            if w1 in node_set and w2 in node_set:
                                if comp[w1] != comp[w2]:
                                    new_edges.add((w1, w2))
        if not new_edges:
            return comp
        edges |= new_edges


def naive_same(comp: Dict[PathKey, int], p: Path, q: Path) -> bool:
    return comp[p.key()] == comp[q.key()]


# -- transitive closure over a span ----------------------------------------------


def span_closure_classes(
    x: Sequence[str], y: Sequence[str], z: Sequence[str],
    f: Mapping[str, str], g: Mapping[str, str],
) -> List[FrozenSet[Tuple[str, str]]]:
    """Connected components of the relation {(z, f(z)), (z, g(z))}."""
    nodes = [("x", e) for e in x] + [("y", e) for e in y] + [("z", e) for e in z]
    edges: Set[Tuple[Tuple[str, str], Tuple[str, str]]] = set()
    for e in z:
        edges.add((("z", e), ("x", f[e])))
        edges.add((("z", e), ("y", g[e])))
    comp = _components(nodes, edges)  # type: ignore[arg-type]
    out: Dict[int, Set[Tuple[str, str]]] = {}
    for n, c in comp.items():
        out.setdefault(c, set()).add(n)  # type: ignore[arg-type]
    return sorted((frozenset(s) for s in out.values()), key=lambda s: sorted(s))


# -- random generators -------------------------------------------------------------


def random_schema(
    rng: random.Random,
    max_vertices: int = 6,
    max_arrows: int = 10,
    n_equations: int = 2,
    eq_len: int = 3,
    name: str = "R",
    acyclic: bool = False,
) -> Schema:
    """A small random multigraph with random parallel-path equivalences.

    With ``acyclic`` the arrows only point from lower to higher vertex
    index, so bounded path enumeration is exhaustive once the bound
    reaches the vertex count.
    """
    n_v = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n_v))
    n_a = rng.randint(0, max_arrows)
    arrows = tuple(f"a{i}" for i in range(n_a))
    src: Dict[str, str] = {}
    tar: Dict[str, str] = {}
    for a in list(arrows):
        if acyclic and n_v > 1:
            i = rng.randint(0, n_v - 2)
            j = rng.randint(i + 1, n_v - 1)
            src[a], tar[a] = vertices[i], vertices[j]
        elif acyclic:
            arrows = tuple(x for x in arrows if x != a)
        else:
            src[a] = rng.choice(vertices)
            tar[a] = rng.choice(vertices)
    schema = Schema(name=name, graph=Graph(vertices, arrows, src, tar))

    # Every path of length <= eq_len: vertices in declaration order, then
    # arrow words in lexicographic order (a word before its extensions).
    paths: List[Path] = []

    def go(start: str, at: str, word: Tuple[str, ...]) -> None:
        paths.append(Path(start, at, word))
        if len(word) < eq_len:
            for a in sorted(x for x in arrows if src[x] == at):
                go(start, tar[a], word + (a,))

    for v in vertices:
        go(v, v, ())
    by_ends: Dict[Tuple[str, str], List[Path]] = {}
    for p in paths:
        by_ends.setdefault((p.start, p.end), []).append(p)
    eqs: List[PathEquivalence] = []
    parallel = [group for group in by_ends.values() if len(group) > 1]
    for _ in range(n_equations):
        if not parallel:
            break
        group = rng.choice(parallel)
        lhs, rhs = rng.sample(group, 2)
        eqs.append(PathEquivalence(lhs, rhs))
    return Schema(
        name=name,
        graph=schema.graph,
        equivalences=tuple(eqs),
        vertex_labels={v: "" for v in vertices},
        arrow_labels={a: "" for a in arrows},
    )


def random_instance(rng: random.Random, schema: Schema, max_rows: int = 3):
    """A lawful-by-construction random instance when the schema has no
    equivalences; with equivalences, it may violate them (callers decide)."""
    from ologdb.instance import make_instance

    tables = {
        v: [f"{v}r{i}" for i in range(rng.randint(0, max_rows))]
        for v in schema.graph.vertices
    }
    # Totality needs a nonempty target wherever the source is nonempty;
    # empty offending sources until stable.
    changed = True
    while changed:
        changed = False
        for a in schema.graph.arrows:
            if not tables[schema.graph.tar[a]] and tables[schema.graph.src[a]]:
                tables[schema.graph.src[a]] = []
                changed = True
    columns = {}
    for a in schema.graph.arrows:
        tgt = tables[schema.graph.tar[a]]
        col = {}
        for r in tables[schema.graph.src[a]]:
            col[r] = rng.choice(tgt)
        columns[a] = col
    return make_instance(schema, tables, columns)
