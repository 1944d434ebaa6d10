"""Pushouts of finite sets and of schemas along a span of translations.

A set pushout glues the disjoint union X + Z + Y by z ~ f(z) and z ~ g(z).
A schema pushout takes the set pushout of the vertex sets, the disjoint
union of the arrow generators, and imposes three families of relations:
images of both schemas' declared equivalences, and one coequalizing equation
per apex arrow making the two induced translations agree.  The free category
is never materialized; the result is emitted as a finite presentation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .schema import (
    Graph,
    OlogError,
    Path,
    PathEquivalence,
    ProductAnnotation,
    Schema,
    UnionFind,
    VertexId,
)
from .migration import Translation, check_translation


class PushoutSetupError(OlogError):
    """The span handed to a pushout is structurally broken."""


# -- pushouts of finite sets ----------------------------------------------------


@dataclass(frozen=True)
class SetPushout:
    """Partition of X + Z + Y with the two inclusion maps into classes.

    Elements are tagged ("x", e) / ("z", e) / ("y", e) so the union is
    genuinely disjoint even when the carriers share ids.
    """

    classes: Tuple[FrozenSet[Tuple[str, str]], ...]
    include_x: Mapping[str, int]  # i2
    include_y: Mapping[str, int]  # i1

    def class_index(self, tag: str, elem: str) -> int:
        for idx, cls in enumerate(self.classes):
            if (tag, elem) in cls:
                return idx
        raise PushoutSetupError(f"element ({tag!r}, {elem!r}) not in the pushout")


def pushout_sets(
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str],
    f: Mapping[str, str],
    g: Mapping[str, str],
) -> SetPushout:
    """Quotient of X + Z + Y by z ~ f(z) and z ~ g(z), via union-find."""
    x = list(dict.fromkeys(x))
    y = list(dict.fromkeys(y))
    z = list(dict.fromkeys(z))
    xs, ys = set(x), set(y)
    uf = UnionFind()
    for e in x:
        uf.add(("x", e))
    for e in y:
        uf.add(("y", e))
    for e in z:
        uf.add(("z", e))
        if e not in f:
            raise PushoutSetupError(f"f is not total: missing {e!r}")
        if e not in g:
            raise PushoutSetupError(f"g is not total: missing {e!r}")
        if f[e] not in xs:
            raise PushoutSetupError(f"f({e!r}) = {f[e]!r} is not in X")
        if g[e] not in ys:
            raise PushoutSetupError(f"g({e!r}) = {g[e]!r} is not in Y")
        uf.union(("z", e), ("x", f[e]))
        uf.union(("z", e), ("y", g[e]))
    groups = uf.groups()
    classes = sorted(
        (frozenset(members) for members in groups.values()),
        key=lambda cls: sorted(cls),
    )
    index = {member: i for i, c in enumerate(classes) for member in c}
    include_x = {e: index[("x", e)] for e in x}
    include_y = {e: index[("y", e)] for e in y}
    return SetPushout(tuple(classes), include_x, include_y)


class UniversalOutcome(enum.Enum):
    MEDIATOR_EXISTS = "MediatorExists"
    NO_CONE = "NoCone"
    NOT_UNIQUE = "NotUnique"


@dataclass(frozen=True)
class UniversalCheck:
    outcome: UniversalOutcome
    mediator: Optional[Mapping[int, str]] = None


def verify_universal(
    p: SetPushout,
    f: Mapping[str, str],
    g: Mapping[str, str],
    candidate_set: Iterable[str],
    j1: Mapping[str, str],
    j2: Mapping[str, str],
    exhaustive_limit: int = 8,
) -> UniversalCheck:
    """Check the mediating morphism into a candidate cocone (P, j1, j2).

    j1 is defined on Y, j2 on X.  If the cocone square j1 . g == j2 . f
    fails, NO_CONE.  Otherwise the mediator u with u . i1 == j1 and
    u . i2 == j2 is constructed; for candidate sets of at most
    ``exhaustive_limit`` elements, uniqueness is re-verified by enumerating
    every map from classes to P.  NOT_UNIQUE signals an engine bug.
    """
    pset = list(dict.fromkeys(candidate_set))
    for elem, image in f.items():
        if j2.get(image) != j1.get(g[elem]):
            return UniversalCheck(UniversalOutcome.NO_CONE)

    mediator: Dict[int, str] = {}
    for e, idx in p.include_x.items():
        want = j2[e]
        if idx in mediator and mediator[idx] != want:
            return UniversalCheck(UniversalOutcome.NO_CONE)
        mediator[idx] = want
    for e, idx in p.include_y.items():
        want = j1[e]
        if idx in mediator and mediator[idx] != want:
            return UniversalCheck(UniversalOutcome.NO_CONE)
        mediator[idx] = want
    if len(mediator) != len(p.classes):
        # Cannot happen for a correct pushout: every class meets X or Y.
        return UniversalCheck(UniversalOutcome.NOT_UNIQUE)

    if pset and len(pset) <= exhaustive_limit and len(p.classes) <= exhaustive_limit:
        solutions = 0
        for values in itertools.product(pset, repeat=len(p.classes)):
            u = dict(enumerate(values))
            if all(u[idx] == j2[e] for e, idx in p.include_x.items()) and all(
                u[idx] == j1[e] for e, idx in p.include_y.items()
            ):
                solutions += 1
                if solutions > 1:
                    return UniversalCheck(UniversalOutcome.NOT_UNIQUE)
    return UniversalCheck(UniversalOutcome.MEDIATOR_EXISTS, mediator)


# -- pushouts of schemas ----------------------------------------------------------


@dataclass(frozen=True)
class SchemaPushout:
    result: Schema
    inject_b: Translation
    inject_c: Translation
    # Apex-arrow coequalizers, also present in result.equivalences.
    coequalizers: Tuple[PathEquivalence, ...]


def pushout_schemas(phi: Translation, psi: Translation) -> SchemaPushout:
    """Glue phi.target and psi.target along their common source schema.

    The vertex set is ``pushout_sets`` of the legs' vertex maps; arrows of
    both targets are kept as generators (prefixed ``b.`` and ``c.``),
    re-indexed to vertex classes; the equivalence set is the union of both
    targets' equivalences plus one coequalizing equation per apex arrow.
    Merged vertex classes are named by the sorted apex vertices mapping
    into them.
    """
    if phi.source.name != psi.source.name:
        raise PushoutSetupError(
            f"span legs start at different schemas: "
            f"{phi.source.name!r} vs {psi.source.name!r}"
        )
    for leg, tag in ((phi, "phi"), (psi, "psi")):
        report = check_translation(leg)
        if not report.ok:
            raise PushoutSetupError(
                f"{tag} has hard errors: " + "; ".join(report.hard_errors)
            )

    B, C = phi.target, psi.target
    apex = phi.source
    po = pushout_sets(B.graph.vertices, C.graph.vertices, apex.graph.vertices,
                      phi.vmap, psi.vmap)

    # Name each class: apex vertices in it joined by "+", else its least
    # member as b.<id> / c.<id>; a repeated name is numbered.
    names: List[str] = []
    used_names: Dict[str, int] = {}
    for cls in po.classes:
        members = sorted(cls)
        hits = [v for tag, v in members if tag == "z"]
        if hits:
            name = "+".join(hits)
        else:
            tag, vid = members[0]
            name = f"{'b' if tag == 'x' else 'c'}.{vid}"
        n = used_names.get(name, 0)
        used_names[name] = n + 1
        names.append(name if n == 0 else f"{name}#{n + 1}")

    def vclass(tag: str, v: VertexId) -> str:
        include = po.include_x if tag == "b" else po.include_y
        return names[include[v]]

    # Vertices in deterministic order: sorted class names.
    vertex_ids = sorted(set(names))

    def class_label(cls: FrozenSet[Tuple[str, str]]) -> str:
        # The least C member's label, else the least B member's.
        c_members = [vid for tag, vid in cls if tag == "y"]
        if c_members:
            return C.vertex_labels[min(c_members)]
        return B.vertex_labels[min(vid for tag, vid in cls if tag == "x")]

    vertex_labels = {name: class_label(cls) for name, cls in zip(names, po.classes)}

    arrows: List[str] = []
    src: Dict[str, str] = {}
    tar: Dict[str, str] = {}
    arrow_labels: Dict[str, str] = {}
    for tag, side in (("b", B), ("c", C)):
        for a in side.graph.arrows:
            aid = f"{tag}.{a}"
            arrows.append(aid)
            src[aid] = vclass(tag, side.graph.src[a])
            tar[aid] = vclass(tag, side.graph.tar[a])
            arrow_labels[aid] = side.arrow_labels[a]

    graph = Graph(tuple(vertex_ids), tuple(arrows), src, tar)

    def transport(tag: str, side: Schema, p: Path) -> Path:
        return Path(
            vclass(tag, p.start),
            vclass(tag, p.end),
            tuple(f"{tag}.{a}" for a in p.arrows),
        )

    equivalences: List[PathEquivalence] = []
    for tag, side in (("b", B), ("c", C)):
        for eq in side.equivalences:
            equivalences.append(
                PathEquivalence(transport(tag, side, eq.lhs),
                                transport(tag, side, eq.rhs))
            )
    coequalizers: List[PathEquivalence] = []
    for a in apex.graph.arrows:
        lhs = transport("b", B, phi.arrow_image(a))
        rhs = transport("c", C, psi.arrow_image(a))
        if lhs != rhs:
            coequalizers.append(PathEquivalence(lhs, rhs))
    equivalences.extend(coequalizers)

    products: List[ProductAnnotation] = []
    for tag, side in (("b", B), ("c", C)):
        for pr in side.products:
            products.append(
                ProductAnnotation(
                    product=vclass(tag, pr.product),
                    left=vclass(tag, pr.left),
                    right=vclass(tag, pr.right),
                    proj1=f"{tag}.{pr.proj1}",
                    proj2=f"{tag}.{pr.proj2}",
                )
            )

    result = Schema(
        name=f"{B.name}+{C.name}",
        graph=graph,
        equivalences=tuple(dict.fromkeys(equivalences)),
        vertex_labels=vertex_labels,
        arrow_labels=arrow_labels,
        products=tuple(products),
    )

    def injection(tag: str, side: Schema) -> Translation:
        return Translation(
            source=side,
            target=result,
            vmap={v: vclass(tag, v) for v in side.graph.vertices},
            amap={
                a: Path(
                    vclass(tag, side.graph.src[a]),
                    vclass(tag, side.graph.tar[a]),
                    (f"{tag}.{a}",),
                )
                for a in side.graph.arrows
            },
        )

    return SchemaPushout(
        result=result,
        inject_b=injection("b", B),
        inject_c=injection("c", C),
        coequalizers=tuple(coequalizers),
    )
