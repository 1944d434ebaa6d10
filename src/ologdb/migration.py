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
from collections import Counter
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
    target, source = F.target, F.source.graph
    part = congruence_closure(target, max_len)
    rows = {v: I.rows(v) for v in source.vertices}
    index = {v: {row: i for i, row in enumerate(rs)} for v, rs in rows.items()}
    moved = {q: [index[source.tar[q]][I.cell(q, row)] for row in rows[source.src[q]]]
             for q in source.arrows}

    # Copies: one block of consecutive ids per (d, v, f), f a path class
    # F(v) -> d; id base + i is the copy of row i of I(v).
    blocks: Dict[VertexId, List[Tuple[int, VertexId, Path]]] = {}
    base_of: Dict[Tuple[VertexId, VertexId, object], int] = {}
    n = 0
    for d in target.graph.vertices:
        blocks[d] = []
        for v in source.vertices:
            for f in part.hom(F.vertex_image(v), d):
                blocks[d].append((n, v, f))
                base_of[(d, v, f.key())] = n
                n += len(rows[v])

    # Glue along source arrows: copy of x at (v1, [F(q) then f2]) is the same
    # element as the copy of I(q)(x) at (v2, f2).
    uf = UnionFind()
    for d in target.graph.vertices:
        for q in source.arrows:
            v1, v2 = source.src[q], source.tar[q]
            for f2 in part.hom(F.vertex_image(v2), d):
                composite = compose(F.arrow_image(q), f2)
                if composite not in part:
                    continue
                b1 = base_of[(d, v1, part.representative(composite).key())]
                b2 = base_of[(d, v2, f2.key())]
                for i, j in enumerate(moved[q]):
                    uf.union(b1 + i, b2 + j)

    # Name classes per target vertex, listed in the order of their first copy.
    roots = [uf.find(c) for c in range(n)]
    classes: Dict[VertexId, List[int]] = {}
    class_id: Dict[int, str] = {}
    tables: Dict[VertexId, List[str]] = {}
    for d in target.graph.vertices:
        best: Dict[int, Tuple[bool, str]] = {}
        root_key: Dict[int, Tuple[object, ...]] = {}
        for base, v, f in blocks[d]:
            # Prefer rows whose copy sits at the identity path class (False
            # sorts first): those are the rows migrated into this table, the
            # rest are reindexed copies riding along in the comma category.
            off_anchor, f_key = f != trivial_path(d), f.key()
            for c, row in enumerate(rows[v], base):
                r = roots[c]
                if r == c:
                    root_key[r] = (d, v, f_key, row)
                if r not in best or (off_anchor, row) < best[r]:
                    best[r] = (off_anchor, row)
        classes[d] = list(best)
        named = [(best[r][1], r) for r in best]
        ties = Counter(name for name, _ in named)
        # Classes sharing a least row are ordered by their root copy's key.
        named.sort(key=lambda t: (t[0], ties[t[0]] > 1 and str(root_key[t[1]])))
        used: Counter = Counter()
        for name, root in named:
            used[name] += 1
            class_id[root] = name if used[name] == 1 else f"{name}#{used[name]}"
        tables[d] = [class_id[root] for _, root in named]

    # Columns: each block at d follows g into a single block at d2.
    columns: Dict[ArrowId, Dict[str, str]] = {}
    for g in target.graph.arrows:
        d, d2 = target.graph.src[g], target.graph.tar[g]
        value: Dict[int, int] = {}
        ambiguous = set()
        for base, v, f in blocks[d]:
            composite = compose(f, Path(d, d2, (g,)))
            if composite not in part:
                continue
            base2 = base_of[(d2, v, part.representative(composite).key())]
            k = len(rows[v])
            for r, r2 in zip(roots[base:base + k], roots[base2:base2 + k]):
                if value.setdefault(r, r2) != r2:
                    ambiguous.add(r)
        col: Dict[str, str] = {}
        for root in classes[d]:
            if root not in value:
                raise BoundOverflowError(
                    f"no member of class {class_id[root]!r} at {d!r} can follow "
                    f"arrow {g!r} within max_len={max_len}; raise the bound"
                )
            if root in ambiguous:
                raise BoundOverflowError(
                    f"column {g!r} is ambiguous for class {class_id[root]!r}; "
                    f"the bound max_len={max_len} truncated the comma category"
                )
            col[class_id[root]] = class_id[value[root]]
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
        used: Counter = Counter()
        for v in preimages[d]:
            for row in I.rows(v):
                used[row] += 1
                rid = row if used[row] == 1 else f"{row}#{used[row]}"
                row_id[(v, row)] = rid
                tables[d].append(rid)

    # A column lifts when some source path out of v maps to the class of g.
    columns: Dict[ArrowId, Dict[str, str]] = {}
    for g in target.graph.arrows:
        d, d2 = target.graph.src[g], target.graph.tar[g]
        col: Dict[str, str] = {}
        for v in preimages[d]:
            q: Optional[Path] = None
            for w in F.source.graph.vertices:
                if F.vertex_image(w) != d2:
                    continue
                for p in enumerate_paths(F.source, v, w, max_len):
                    image = F.path_image(p)
                    if image in part and part.same(image, Path(d, d2, (g,))):
                        if q is None or (len(p), p.arrows) < (len(q), q.arrows):
                            q = p
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


def translation_from_dict(
    data: Mapping[str, object], source: Schema, target: Schema
) -> Translation:
    if not isinstance(data, Mapping):
        raise TranslationError("a translation must be a JSON object")
    if data.get("source") != source.name or data.get("target") != target.name:
        raise TranslationError(
            f"translation maps {data.get('source')!r} -> {data.get('target')!r}, "
            f"got schemas {source.name!r} -> {target.name!r}"
        )
    vmap = data.get("vmap", {})
    if not (isinstance(vmap, Mapping)
            and all(isinstance(w, str) for w in vmap.values())):
        raise TranslationError("translation 'vmap' must map vertex ids to vertex ids")
    amap_raw = data.get("amap", {})
    if not isinstance(amap_raw, Mapping):
        raise TranslationError("translation 'amap' must map arrow ids to lists")
    amap: Dict[str, Path] = {}
    for a, word in amap_raw.items():
        if not isinstance(word, list) or not all(isinstance(x, str) for x in word):
            raise TranslationError(f"amap image of {a!r} must be a list of arrow ids")
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
    return Translation(source=source, target=target, vmap=dict(vmap), amap=amap)


def translation_from_json(text: str, source: Schema, target: Schema) -> Translation:
    return translation_from_dict(json.loads(text), source, target)
