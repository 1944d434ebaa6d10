"""Finite category presentations: directed multigraphs plus path equivalences.

A schema is a directed multigraph whose vertices and arrows carry labels,
together with a set of declared equivalences between parallel paths.  Path
words generate the category freely; the equivalences generate a congruence.
The word problem for such presentations is undecidable in general, so every
equational question here is answered relative to a caller-supplied length
bound: either ``DERIVABLE`` or ``NOT_DERIVABLE_WITHIN_BOUND``, never a bare
"no".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

VertexId = str
ArrowId = str


class OlogError(Exception):
    """Base class for all engine errors."""


class UnknownVertexError(OlogError):
    def __init__(self, vertex: VertexId) -> None:
        super().__init__(f"unknown vertex: {vertex!r}")
        self.vertex = vertex


class UnknownArrowError(OlogError):
    def __init__(self, arrow: ArrowId) -> None:
        super().__init__(f"unknown arrow: {arrow!r}")
        self.arrow = arrow


class CompositionError(OlogError):
    """Raised when two paths are composed endpoint-to-endpoint incorrectly."""

    def __init__(self, left_end: VertexId, right_start: VertexId) -> None:
        super().__init__(
            f"cannot compose: first path ends at {left_end!r} "
            f"but second path starts at {right_start!r}"
        )
        self.left_end = left_end
        self.right_start = right_start


class ParallelismError(OlogError):
    """Raised when an equivalence relates non-parallel paths."""


class BoundTooSmallError(OlogError):
    """Raised when a declared equivalence does not fit under the length bound."""


class SchemaError(OlogError):
    """Raised on malformed schema structure (bad endpoints, duplicates, ...)."""


class UnionFind:
    """Disjoint sets over arbitrary hashable keys, with path compression."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def add(self, x: object) -> None:
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x: object) -> object:
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: object, b: object) -> bool:
        """Merge the classes of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def groups(self) -> Dict[object, List[object]]:
        out: Dict[object, List[object]] = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass(frozen=True)
class Path:
    """A head-tail chain of arrows, or the trivial path on ``start``.

    ``end`` is carried explicitly so composition does not need the ambient
    graph.  A trivial path has no arrows and start == end.
    """

    start: VertexId
    end: VertexId
    arrows: Tuple[ArrowId, ...] = ()

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def key(self) -> Tuple[VertexId, Tuple[ArrowId, ...]]:
        return (self.start, self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"id({self.start})"
        return ".".join(self.arrows)


def trivial_path(v: VertexId) -> Path:
    return Path(v, v, ())


def compose(p: Path, q: Path) -> Path:
    """Diagrammatic composition: traverse p, then q.

    Unital and associative exactly as tuple concatenation is.
    """
    if p.end != q.start:
        raise CompositionError(p.end, q.start)
    return Path(p.start, q.end, p.arrows + q.arrows)


@dataclass(frozen=True)
class PathEquivalence:
    """A declared equality between two parallel paths."""

    lhs: Path
    rhs: Path

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class ProductAnnotation:
    """Marks a vertex as a product of two others via two projection arrows."""

    product: VertexId
    left: VertexId
    right: VertexId
    proj1: ArrowId
    proj2: ArrowId


@dataclass(frozen=True)
class Graph:
    """A directed multigraph.  Declaration order of vertices/arrows is kept."""

    vertices: Tuple[VertexId, ...]
    arrows: Tuple[ArrowId, ...]
    src: Mapping[ArrowId, VertexId]
    tar: Mapping[ArrowId, VertexId]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise SchemaError("duplicate vertex ids")
        if len(set(self.arrows)) != len(self.arrows):
            raise SchemaError("duplicate arrow ids")
        vs = set(self.vertices)
        outgoing: Dict[VertexId, List[ArrowId]] = {v: [] for v in self.vertices}
        incoming: Dict[VertexId, List[ArrowId]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a not in self.src or a not in self.tar:
                raise SchemaError(f"arrow {a!r} lacks src or tar")
            if self.src[a] not in vs:
                raise SchemaError(f"arrow {a!r} has unknown source {self.src[a]!r}")
            if self.tar[a] not in vs:
                raise SchemaError(f"arrow {a!r} has unknown target {self.tar[a]!r}")
            outgoing[self.src[a]].append(a)
            incoming[self.tar[a]].append(a)
        object.__setattr__(self, "_vertex_set", vs)
        object.__setattr__(self, "_arrow_set", set(self.arrows))
        object.__setattr__(self, "_outgoing", {v: sorted(x) for v, x in outgoing.items()})
        object.__setattr__(self, "_incoming", {v: sorted(x) for v, x in incoming.items()})

    def has_arrow(self, a: ArrowId) -> bool:
        return a in self._arrow_set  # type: ignore[attr-defined]

    def out_arrows(self, v: VertexId) -> List[ArrowId]:
        return self._outgoing[v]  # type: ignore[attr-defined]

    def in_arrows(self, v: VertexId) -> List[ArrowId]:
        return self._incoming[v]  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Schema:
    """A category presentation with olog labels and product annotations."""

    name: str
    graph: Graph
    equivalences: Tuple[PathEquivalence, ...] = ()
    vertex_labels: Mapping[VertexId, str] = field(default_factory=dict)
    arrow_labels: Mapping[ArrowId, str] = field(default_factory=dict)
    products: Tuple[ProductAnnotation, ...] = ()

    def __post_init__(self) -> None:
        # Labels are total: missing entries become the empty string.
        vlabels = {v: self.vertex_labels.get(v, "") for v in self.graph.vertices}
        alabels = {a: self.arrow_labels.get(a, "") for a in self.graph.arrows}
        object.__setattr__(self, "vertex_labels", vlabels)
        object.__setattr__(self, "arrow_labels", alabels)
        for eq in self.equivalences:
            self.check_path(eq.lhs)
            self.check_path(eq.rhs)
            if eq.lhs.start != eq.rhs.start or eq.lhs.end != eq.rhs.end:
                raise ParallelismError(
                    f"equivalence {eq} relates non-parallel paths "
                    f"({eq.lhs.start}->{eq.lhs.end} vs {eq.rhs.start}->{eq.rhs.end})"
                )
        for pr in self.products:
            for v in (pr.product, pr.left, pr.right):
                if v not in self.graph.vertices:
                    raise UnknownVertexError(v)
            for proj, dst in ((pr.proj1, pr.left), (pr.proj2, pr.right)):
                if not self.graph.has_arrow(proj):
                    raise UnknownArrowError(proj)
                if self.graph.src[proj] != pr.product or self.graph.tar[proj] != dst:
                    raise SchemaError(
                        f"projection {proj!r} is not an arrow "
                        f"{pr.product!r} -> {dst!r}"
                    )

    # -- path helpers -------------------------------------------------------

    def has_vertex(self, v: VertexId) -> bool:
        return v in self.graph.vertices

    def check_path(self, p: Path) -> None:
        """Verify p is a head-tail chain of this schema's arrows."""
        if p.start not in self.graph.vertices:
            raise UnknownVertexError(p.start)
        at = p.start
        for a in p.arrows:
            if not self.graph.has_arrow(a):
                raise UnknownArrowError(a)
            if self.graph.src[a] != at:
                raise SchemaError(
                    f"path {p} breaks at {a!r}: expected source {at!r}, "
                    f"got {self.graph.src[a]!r}"
                )
            at = self.graph.tar[a]
        if at != p.end:
            raise SchemaError(f"path {p} ends at {at!r}, not {p.end!r}")

    def path(self, arrows: Sequence[ArrowId], start: Optional[VertexId] = None) -> Path:
        """Build a validated path from an arrow word (or a trivial path)."""
        if not arrows:
            if start is None:
                raise SchemaError("a trivial path needs an explicit start vertex")
            if start not in self.graph.vertices:
                raise UnknownVertexError(start)
            return trivial_path(start)
        first = arrows[0]
        if not self.graph.has_arrow(first):
            raise UnknownArrowError(first)
        p = Path(self.graph.src[first], self.graph.tar[first], (first,))
        for a in arrows[1:]:
            if not self.graph.has_arrow(a):
                raise UnknownArrowError(a)
            p = compose(p, Path(self.graph.src[a], self.graph.tar[a], (a,)))
        if start is not None and p.start != start:
            raise SchemaError(f"path {p} does not start at {start!r}")
        return p


# -- path enumeration --------------------------------------------------------


def _walk(schema: Schema, start: VertexId, max_len: int) -> List[Path]:
    """Every path out of ``start`` of length <= max_len, by depth-first search.

    Output is ordered lexicographically by arrow-id sequence: a path comes
    before its extensions, and ``Graph`` keeps out-arrows sorted.
    """
    out: List[Path] = []
    word: List[ArrowId] = []

    def walk(at: VertexId) -> None:
        out.append(Path(start, at, tuple(word)))
        if len(word) == max_len:
            return
        for a in schema.graph.out_arrows(at):
            word.append(a)
            walk(schema.graph.tar[a])
            word.pop()

    walk(start)
    return out


def enumerate_paths(
    schema: Schema, source: VertexId, target: VertexId, max_len: int
) -> List[Path]:
    """All paths source -> target of length <= max_len.

    Output is ordered lexicographically by arrow-id sequence, with the
    trivial path (when source == target) first.
    """
    if source not in schema.graph.vertices:
        raise UnknownVertexError(source)
    if target not in schema.graph.vertices:
        raise UnknownVertexError(target)
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    return [p for p in _walk(schema, source, max_len) if p.end == target]


def all_paths_up_to(schema: Schema, max_len: int) -> List[Path]:
    """Every path of the schema of length <= max_len, deterministic order."""
    return [p for v in schema.graph.vertices for p in _walk(schema, v, max_len)]


# -- bounded congruence closure ----------------------------------------------


def _class_sort_key(p: Path) -> Tuple[int, Tuple[ArrowId, ...], VertexId]:
    # Length-lexicographically least path is the canonical representative.
    return (len(p.arrows), p.arrows, p.start)


class PathPartition:
    """Equivalence classes of bounded paths under the congruence closure."""

    def __init__(self, schema: Schema, max_len: int, paths: List[Path], uf: UnionFind):
        self.schema = schema
        self.max_len = max_len
        self._index: Dict[Tuple[VertexId, Tuple[ArrowId, ...]], Path] = {
            p.key(): p for p in paths
        }
        self._uf = uf
        self._groups: Optional[Dict[object, List[Path]]] = None
        self._homs: Optional[Dict[Tuple[VertexId, VertexId], Tuple[Path, ...]]] = None

    def __contains__(self, p: Path) -> bool:
        return p.key() in self._index

    def same(self, p: Path, q: Path) -> bool:
        """True if p and q are congruent within the bound.

        Reflexively true even for paths beyond the bound.
        """
        if p == q:
            return True
        if p.key() not in self._index or q.key() not in self._index:
            return False
        return self._uf.find(p.key()) == self._uf.find(q.key())

    def _grouped(self) -> Dict[object, List[Path]]:
        if self._groups is None:
            grouped: Dict[object, List[Path]] = {}
            for k, p in self._index.items():
                grouped.setdefault(self._uf.find(k), []).append(p)
            for g in grouped.values():
                g.sort(key=_class_sort_key)
            self._groups = grouped
        return self._groups

    def representative(self, p: Path) -> Path:
        """Canonical (length-lex least) member of p's class."""
        return self.class_of(p)[0]

    def hom(self, x: VertexId, y: VertexId) -> Tuple[Path, ...]:
        """Representatives of the path classes x -> y within the bound.

        Classes are ordered by their lexicographically least arrow word,
        which is the order a scan of ``enumerate_paths`` meets them in.
        """
        for v in (x, y):
            if v not in self.schema.graph.vertices:
                raise UnknownVertexError(v)
        if self._homs is None:
            homs: Dict[Tuple[VertexId, VertexId], List[Path]] = {}
            seen = set()
            for p in sorted(self._index.values(), key=lambda p: p.arrows):
                root = self._uf.find(p.key())
                if root not in seen:
                    seen.add(root)
                    homs.setdefault((p.start, p.end), []).append(self.representative(p))
            self._homs = {k: tuple(reps) for k, reps in homs.items()}
        return self._homs.get((x, y), ())

    def class_of(self, p: Path) -> List[Path]:
        if p.key() not in self._index:
            raise OlogError(f"path {p} exceeds the enumeration bound {self.max_len}")
        return self._grouped()[self._uf.find(p.key())]

    def classes(self) -> List[List[Path]]:
        """All classes, each sorted, ordered by their representatives."""
        out = list(self._grouped().values())
        out.sort(key=lambda g: _class_sort_key(g[0]))
        return out


def congruence_closure(
    schema: Schema,
    max_len: int,
    axioms: Optional[Iterable[PathEquivalence]] = None,
) -> PathPartition:
    """Smallest bounded congruence containing ``axioms``.

    The relation is the least equivalence on paths of length <= max_len
    that contains the axioms and is closed under whiskering by single
    arrows whenever both whiskered paths stay within the bound.  Defaults
    to the schema's declared equivalences as axioms.
    """
    if axioms is None:
        axioms = schema.equivalences
    axioms = list(axioms)
    for eq in axioms:
        if len(eq.lhs) > max_len or len(eq.rhs) > max_len:
            raise BoundTooSmallError(
                f"max_len={max_len} is smaller than declared equivalence {eq}"
            )
        schema.check_path(eq.lhs)
        schema.check_path(eq.rhs)
        if eq.lhs.start != eq.rhs.start or eq.lhs.end != eq.rhs.end:
            raise ParallelismError(f"axiom {eq} relates non-parallel paths")

    graph = schema.graph
    uf = UnionFind()
    # Invariant: ``shortest`` maps each root key to a shortest member of its
    # class (a key that never merged is its own).  A whiskering of p stays
    # within the bound exactly when len(p) < max_len, so a class has an
    # in-bound whiskering only if its shortest member does.  Merging two
    # classes therefore queues just the whiskerings of their two shortest
    # members; every other in-bound pair follows by transitivity.
    shortest: Dict[object, Tuple[VertexId, Tuple[ArrowId, ...]]] = {}
    pending = [(eq.lhs.key(), eq.rhs.key()) for eq in axioms]
    while pending:
        ra, rb = (uf.find(k) for k in pending.pop())
        if ra == rb:
            continue
        (start, p), (_, q) = shortest.get(ra, ra), shortest.get(rb, rb)
        uf.union(ra, rb)
        shortest[uf.find(ra)] = (start, p if len(p) <= len(q) else q)
        if len(p) < max_len and len(q) < max_len:
            end = graph.tar[p[-1]] if p else start
            for x in graph.in_arrows(start):
                sx = graph.src[x]
                pending.append(((sx, (x,) + p), (sx, (x,) + q)))
            for y in graph.out_arrows(end):
                pending.append(((start, p + (y,)), (start, q + (y,))))
    return PathPartition(schema, max_len, all_paths_up_to(schema, max_len), uf)


class Derivability(enum.Enum):
    DERIVABLE = "Derivable"
    NOT_DERIVABLE_WITHIN_BOUND = "NotDerivableWithinBound"


def entails(
    schema: Schema,
    eq: PathEquivalence,
    max_len: int,
    axioms: Optional[Iterable[PathEquivalence]] = None,
) -> Derivability:
    """Decide a path equation against the bounded congruence closure.

    Monotone in max_len and in axiom-set inclusion: a DERIVABLE answer
    never degrades when the bound grows or axioms are added.
    """
    schema.check_path(eq.lhs)
    schema.check_path(eq.rhs)
    if eq.lhs.start != eq.rhs.start or eq.lhs.end != eq.rhs.end:
        raise ParallelismError(f"query {eq} relates non-parallel paths")
    if eq.lhs == eq.rhs:
        return Derivability.DERIVABLE
    if len(eq.lhs) > max_len or len(eq.rhs) > max_len:
        return Derivability.NOT_DERIVABLE_WITHIN_BOUND
    part = congruence_closure(schema, max_len, axioms)
    if part.same(eq.lhs, eq.rhs):
        return Derivability.DERIVABLE
    return Derivability.NOT_DERIVABLE_WITHIN_BOUND
