"""Schema translations and left-pushforward data migration.

A translation sends vertices to vertices and arrows to paths of the target,
preserving endpoints; declared equivalences must map to target equations
that are at least assertable, ideally derivable.  Migration of an instance
along a translation takes, at each target vertex, the colimit of the
instance over the comma category of the translation above that vertex.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .schema import (
    ArrowId,
    Derivability,
    OlogError,
    Path,
    PathEquivalence,
    Schema,
    UnionFind,
    VertexId,
    compose,
    congruence_closure,
    enumerate_paths,
    trivial_path,
)
from .instance import (
    Instance,
    InvalidInstanceError,
    follow_path,
    make_instance,
    validate,
)


class TranslationError(OlogError):
    """Structural failure: missing maps, unknown ids, broken endpoints."""


class BoundOverflowError(OlogError):
    """A comma-category computation needs paths beyond the configured bound."""


DEFAULT_MAX_LEN = 8


@dataclass(frozen=True)
class Translation:
    """A schema morphism: vertex map plus arrow-to-path map."""

    source: Schema
    target: Schema
    vmap: Mapping[VertexId, VertexId]
    amap: Mapping[ArrowId, Path]

    def vertex_image(self, v: VertexId) -> VertexId:
        if v not in self.vmap:
            raise TranslationError(f"vmap does not cover vertex {v!r}")
        return self.vmap[v]

    def arrow_image(self, a: ArrowId) -> Path:
        if a not in self.amap:
            raise TranslationError(f"amap does not cover arrow {a!r}")
        return self.amap[a]

    def path_image(self, p: Path) -> Path:
        """Translate a source path by substituting each arrow's image."""
        out = trivial_path(self.vertex_image(p.start))
        for a in p.arrows:
            out = compose(out, self.arrow_image(a))
        return out


def identity_translation(schema: Schema) -> Translation:
    return Translation(
        source=schema,
        target=schema,
        vmap={v: v for v in schema.graph.vertices},
        amap={
            a: Path(schema.graph.src[a], schema.graph.tar[a], (a,))
            for a in schema.graph.arrows
        },
    )


def compose_translations(f: Translation, g: Translation) -> Translation:
    """g after f, as a single translation from f.source to g.target."""
    if f.target.name != g.source.name:
        raise TranslationError(
            f"cannot compose: {f.target.name!r} is not {g.source.name!r}"
        )
    return Translation(
        source=f.source,
        target=g.target,
        vmap={v: g.vertex_image(f.vertex_image(v)) for v in f.source.graph.vertices},
        amap={a: g.path_image(f.arrow_image(a)) for a in f.source.graph.arrows},
    )


# -- law checking --------------------------------------------------------------


@dataclass
class TranslationReport:
    structural: List[str] = field(default_factory=list)
    endpoint_violations: List[Dict[str, str]] = field(default_factory=list)
    equivalence_status: List[Tuple[PathEquivalence, Derivability]] = field(
        default_factory=list
    )

    @property
    def hard_errors(self) -> List[str]:
        out = list(self.structural)
        for v in self.endpoint_violations:
            out.append(
                f"arrow {v['arrow']!r}: image endpoints {v['got']} "
                f"do not match vertex images {v['expected']}"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.hard_errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "structural": sorted(self.structural),
            "endpoint_violations": self.endpoint_violations,
            "equivalence_status": [
                {"equation": str(eq), "status": d.value}
                for eq, d in self.equivalence_status
            ],
        }


def check_translation(t: Translation, max_len: int = DEFAULT_MAX_LEN) -> TranslationReport:
    """Verify totality, endpoint squares, and equivalence preservation.

    Endpoint problems are hard errors.  An equivalence whose image cannot be
    derived within the bound is reported as NotDerivableWithinBound, which is
    a warning, not a failure.
    """
    report = _check_structure(t)
    if report.ok and t.source.equivalences:
        images = [
            PathEquivalence(t.path_image(eq.lhs), t.path_image(eq.rhs))
            for eq in t.source.equivalences
        ]
        needed = max(
            [max_len]
            + [len(eq.lhs) for eq in t.target.equivalences]
            + [len(eq.rhs) for eq in t.target.equivalences]
        )
        partition = congruence_closure(t.target, needed)
        for src_eq, img in zip(t.source.equivalences, images):
            status = (
                Derivability.DERIVABLE
                if partition.same(img.lhs, img.rhs)
                else Derivability.NOT_DERIVABLE_WITHIN_BOUND
            )
            report.equivalence_status.append((src_eq, status))
    return report


def _check_structure(t: Translation) -> TranslationReport:
    """The hard-error half of ``check_translation``: totality and endpoints."""
    report = TranslationReport()
    for v in t.source.graph.vertices:
        if v not in t.vmap:
            report.structural.append(f"vmap does not cover vertex {v!r}")
        elif not t.target.has_vertex(t.vmap[v]):
            report.structural.append(
                f"vmap sends {v!r} to unknown target vertex {t.vmap[v]!r}"
            )
    for a in t.source.graph.arrows:
        if a not in t.amap:
            report.structural.append(f"amap does not cover arrow {a!r}")
            continue
        try:
            t.target.check_path(t.amap[a])
        except OlogError as exc:
            report.structural.append(f"amap image of {a!r} is malformed: {exc}")
    if report.structural:
        return report

    for a in t.source.graph.arrows:
        image = t.amap[a]
        want = (t.vmap[t.source.graph.src[a]], t.vmap[t.source.graph.tar[a]])
        got = (image.start, image.end)
        if want != got:
            report.endpoint_violations.append(
                {"arrow": a, "expected": f"{want[0]}->{want[1]}",
                 "got": f"{got[0]}->{got[1]}"}
            )
    return report


# -- comma categories -----------------------------------------------------------


@dataclass(frozen=True)
class CommaObject:
    """Triple (a, b, f) with f a target path-class from F(a) to G(b)."""

    left: VertexId
    right: VertexId
    f: Path  # canonical class representative


@dataclass(frozen=True)
class CommaMorphism:
    q: Path  # class representative in F's source
    r: Path  # class representative in G's source
    source: CommaObject
    target: CommaObject


@dataclass(frozen=True)
class CommaCategory:
    objects: Tuple[CommaObject, ...]
    morphisms: Tuple[CommaMorphism, ...]


def comma(F: Translation, G: Translation, max_len: int = DEFAULT_MAX_LEN) -> CommaCategory:
    """The comma category (F down-to G) with morphism components up to
    congruence, all path data bounded by max_len."""
    if F.target.name != G.target.name:
        raise TranslationError(
            f"comma setup needs a shared apex: {F.target.name!r} vs {G.target.name!r}"
        )
    apex = F.target
    apex_part = congruence_closure(apex, max_len)

    objects: List[CommaObject] = []
    for a in F.source.graph.vertices:
        for b in G.source.graph.vertices:
            for f in apex_part.hom(F.vertex_image(a), G.vertex_image(b)):
                objects.append(CommaObject(a, b, f))

    left_part = congruence_closure(F.source, max_len)
    right_part = congruence_closure(G.source, max_len)
    F_image = {g[0]: F.path_image(g[0]) for g in left_part.classes()}
    G_image = {g[0]: G.path_image(g[0]) for g in right_part.classes()}
    morphisms: List[CommaMorphism] = []
    for o1 in objects:
        for o2 in objects:
            for q in left_part.hom(o1.left, o2.left):
                for r in right_part.hom(o1.right, o2.right):
                    # square: G(r) . f1  ==  f2 . F(q)   (diagrammatic order)
                    try:
                        lhs = compose(F_image[q], o2.f)
                        rhs = compose(o1.f, G_image[r])
                    except OlogError:
                        continue
                    if len(lhs) > max_len or len(rhs) > max_len:
                        continue
                    if apex_part.same(lhs, rhs):
                        morphisms.append(CommaMorphism(q, r, o1, o2))
    return CommaCategory(tuple(objects), tuple(morphisms))


def terminal_schema(name: str = "1") -> Schema:
    from .schema import Graph

    return Schema(name=name, graph=Graph(("pt",), (), {}, {}),
                  vertex_labels={"pt": "the point"})


def vertex_pick(schema: Schema, vertex: VertexId, name: str = "1") -> Translation:
    """The translation from the terminal schema selecting one vertex."""
    if not schema.has_vertex(vertex):
        raise TranslationError(f"unknown vertex {vertex!r} in {schema.name!r}")
    return Translation(source=terminal_schema(name), target=schema,
                       vmap={"pt": vertex}, amap={})


# -- left pushforward -----------------------------------------------------------


class SigmaMode(enum.Enum):
    COLIMIT = "colimit"
    DISJOINT_UNION = "disjoint"


def sigma(
    F: Translation,
    I: Instance,
    mode: SigmaMode = SigmaMode.COLIMIT,
    max_len: int = DEFAULT_MAX_LEN,
) -> Instance:
    """Migrate an instance along a translation.

    COLIMIT computes, at each target vertex d, the true colimit of the
    instance over (F down-to d): one row copy per (source vertex, path class
    into d), glued along every source arrow, with the quotient computed by
    union-find.  Class representatives are named by their least member row
    id.  DISJOINT_UNION keeps only the preimage tables unquotiented (the
    presentation where a migrated pair row stays distinct from its
    projections) and fills in only those columns that lift through the
    translation; cells with no lift are left absent.
    """
    if I.schema.name != F.source.name:
        raise TranslationError(
            f"instance is over {I.schema.name!r}, translation expects "
            f"{F.source.name!r}"
        )
    report = validate(I)
    if not report.ok:
        raise InvalidInstanceError(report)
    check = _check_structure(F)
    if not check.ok:
        raise TranslationError("; ".join(check.hard_errors))

    if mode is SigmaMode.DISJOINT_UNION:
        return _sigma_disjoint(F, I, max_len)
    return _sigma_colimit(F, I, max_len)


def _sigma_colimit(F: Translation, I: Instance, max_len: int) -> Instance:
    target = F.target
    part = congruence_closure(target, max_len)

    # Copies: (d, v, f-class-rep, row) for every source vertex v, path class
    # f: F(v) -> d, row in I(v).
    uf = UnionFind()
    copies: Dict[VertexId, List[Tuple[VertexId, Path, str]]] = {}
    for d in target.graph.vertices:
        copies[d] = []
        for v in F.source.graph.vertices:
            for f in part.hom(F.vertex_image(v), d):
                for row in I.rows(v):
                    key = (d, v, f.key(), row)
                    uf.add(key)
                    copies[d].append((v, f, row))

    # Glue along source arrows: copy of x at (v1, [F(q) then f2]) is the same
    # element as the copy of I(q)(x) at (v2, f2).
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

    # Name classes per target vertex.
    class_members: Dict[VertexId, Dict[object, List[Tuple[VertexId, Path, str]]]] = {}
    for d in target.graph.vertices:
        groups: Dict[object, List[Tuple[VertexId, Path, str]]] = {}
        for v, f, row in copies[d]:
            groups.setdefault(uf.find((d, v, f.key(), row)), []).append((v, f, row))
        class_members[d] = groups

    class_id: Dict[object, str] = {}
    tables: Dict[VertexId, List[str]] = {}
    for d in target.graph.vertices:
        anchor = trivial_path(d)
        named: List[Tuple[str, object]] = []
        for root, members in class_members[d].items():
            # Prefer rows whose copy sits at the identity path class: those
            # are the rows migrated into this table, the rest are reindexed
            # copies riding along in the comma category.
            direct = [row for _, f, row in members if f == anchor]
            least = min(direct) if direct else min(row for _, _, row in members)
            named.append((least, root))
        named.sort(key=lambda t: (t[0], str(t[1])))
        used: Dict[str, int] = {}
        tables[d] = []
        for least, root in named:
            n = used.get(least, 0)
            used[least] = n + 1
            rid = least if n == 0 else f"{least}#{n + 1}"
            class_id[root] = rid
            tables[d].append(rid)

    columns: Dict[ArrowId, Dict[str, str]] = {}
    for g in target.graph.arrows:
        d, d2 = target.graph.src[g], target.graph.tar[g]
        g_path = Path(d, d2, (g,))
        col: Dict[str, str] = {}
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


def _sigma_disjoint(F: Translation, I: Instance, max_len: int) -> Instance:
    target = F.target
    part = congruence_closure(target, max_len)
    preimages: Dict[VertexId, List[VertexId]] = {d: [] for d in target.graph.vertices}
    for v in F.source.graph.vertices:
        preimages[F.vertex_image(v)].append(v)

    tables: Dict[VertexId, List[str]] = {}
    row_id: Dict[Tuple[VertexId, str], str] = {}
    for d in target.graph.vertices:
        tables[d] = []
        used: Dict[str, int] = {}
        for v in preimages[d]:
            for row in I.rows(v):
                n = used.get(row, 0)
                used[row] = n + 1
                rid = row if n == 0 else f"{row}#{n + 1}"
                row_id[(v, row)] = rid
                tables[d].append(rid)

    # A column lifts when some source path out of v maps to the class of g.
    lift_cache: Dict[Tuple[VertexId, ArrowId], Optional[Path]] = {}

    def lift(v: VertexId, g: ArrowId) -> Optional[Path]:
        key = (v, g)
        if key not in lift_cache:
            d2 = target.graph.tar[g]
            g_path = Path(target.graph.src[g], d2, (g,))
            best: Optional[Path] = None
            for w in F.source.graph.vertices:
                if F.vertex_image(w) != d2:
                    continue
                for q in enumerate_paths(F.source, v, w, max_len):
                    image = F.path_image(q)
                    if image in part and part.same(image, g_path):
                        if best is None or (len(q), q.arrows) < (len(best), best.arrows):
                            best = q
            lift_cache[key] = best
        return lift_cache[key]

    columns: Dict[ArrowId, Dict[str, str]] = {}
    for g in target.graph.arrows:
        d = target.graph.src[g]
        col: Dict[str, str] = {}
        for v in preimages[d]:
            q = lift(v, g)
            if q is None:
                continue
            for row in I.rows(v):
                col[row_id[(v, row)]] = row_id[(q.end, follow_path(I, q, row))]
        if col:
            columns[g] = col
    return make_instance(target, tables, columns)


# -- JSON interchange -----------------------------------------------------------


def translation_to_dict(t: Translation) -> Dict[str, object]:
    return {
        "source": t.source.name,
        "target": t.target.name,
        "vmap": {v: t.vmap[v] for v in sorted(t.vmap)},
        "amap": {a: list(t.amap[a].arrows) for a in sorted(t.amap)},
    }


def translation_to_json(t: Translation) -> str:
    return json.dumps(translation_to_dict(t), sort_keys=True, ensure_ascii=False,
                      indent=2)


def translation_from_dict(
    data: Mapping[str, object], source: Schema, target: Schema
) -> Translation:
    if data.get("source") != source.name or data.get("target") != target.name:
        raise TranslationError(
            f"translation maps {data.get('source')!r} -> {data.get('target')!r}, "
            f"got schemas {source.name!r} -> {target.name!r}"
        )
    vmap = dict(data.get("vmap", {}))
    amap_raw: Mapping[str, List[str]] = data.get("amap", {})  # type: ignore[assignment]
    amap: Dict[str, Path] = {}
    for a, word in amap_raw.items():
        if not source.graph.has_arrow(a):
            raise TranslationError(f"amap covers unknown arrow {a!r}")
        if word:
            amap[a] = target.path(tuple(word))
        else:
            src_v = source.graph.src[a]
            if src_v not in vmap:
                raise TranslationError(
                    f"amap gives arrow {a!r} a trivial image but vmap misses "
                    f"{src_v!r}"
                )
            amap[a] = trivial_path(vmap[src_v])
    return Translation(source=source, target=target, vmap=vmap, amap=amap)


def translation_from_json(text: str, source: Schema, target: Schema) -> Translation:
    return translation_from_dict(json.loads(text), source, target)
