"""Text format for schemas.

Statements, one per line, `#` starts a comment, blank lines ignored:

    vertex <id> "label"
    arrow <id>: <src> -> <tar> "label"
    eq <path> = <path>
    product <p> = <l> * <r> via <proj1>, <proj2>

A path is either ``id(<vertex>)`` or a dot-joined arrow word ``a1.a2.a3``
read in application order: ``a1`` first, then ``a2``.  (The usual circle
notation writes the same composite backwards.)

Identifiers may themselves contain dots (pushout output names arrows
``b.<id>`` / ``c.<id>``); a path word is segmented against the schema's
declared arrows and must segment uniquely.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .schema import (
    Graph,
    OlogError,
    Path,
    PathEquivalence,
    ProductAnnotation,
    Schema,
)

IDENT = r"[A-Za-z0-9_+.-]+"
_VERTEX_RE = re.compile(rf"^vertex\s+({IDENT})\s+\"(.*)\"\s*$")
_ARROW_RE = re.compile(
    rf"^arrow\s+({IDENT})\s*:\s*({IDENT})\s*->\s*({IDENT})\s+\"(.*)\"\s*$"
)
_EQ_RE = re.compile(r"^eq\s+(\S+)\s*=\s*(\S+)\s*$")
_PRODUCT_RE = re.compile(
    rf"^product\s+({IDENT})\s*=\s*({IDENT})\s*\*\s*({IDENT})"
    rf"\s+via\s+({IDENT})\s*,\s*({IDENT})\s*$"
)
_ID_PATH_RE = re.compile(rf"^id\(({IDENT})\)$")


class DslParseError(OlogError):
    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def segment_arrow_word(schema: Schema, expr: str) -> Tuple[str, ...]:
    """Segment a dot-joined word into declared arrow ids, uniquely."""
    if not re.fullmatch(IDENT, expr):
        raise OlogError(f"malformed path expression {expr!r}")
    tokens = expr.split(".")
    n = len(tokens)
    # segmentations[i]: up to two distinct arrow words covering tokens[:i]
    segmentations: List[List[Tuple[str, ...]]] = [[] for _ in range(n + 1)]
    segmentations[0].append(())
    for i in range(n):
        for j in range(i + 1, n + 1):
            candidate = ".".join(tokens[i:j])
            if schema.graph.has_arrow(candidate):
                for prefix in segmentations[i]:
                    if len(segmentations[j]) < 2:
                        segmentations[j].append(prefix + (candidate,))
    if not segmentations[n]:
        raise OlogError(
            f"path expression {expr!r} does not segment into declared arrows"
        )
    if len(segmentations[n]) > 1:
        raise OlogError(
            f"path expression {expr!r} segments ambiguously over the "
            f"declared arrows"
        )
    return segmentations[n][0]


def path_from_expr(schema: Schema, expr: str) -> Path:
    m = _ID_PATH_RE.match(expr)
    if m:
        return schema.path((), start=m.group(1))
    return schema.path(segment_arrow_word(schema, expr))


def parse_schema(text: str, name: str) -> Schema:
    """Parse the schema DSL; raises DslParseError with line/column info."""
    vertices: List[str] = []
    vertex_labels: Dict[str, str] = {}
    arrows: List[str] = []
    src: Dict[str, str] = {}
    tar: Dict[str, str] = {}
    arrow_labels: Dict[str, str] = {}
    raw_eqs: List[Tuple[int, str, str]] = []
    raw_products: List[Tuple[int, Tuple[str, str, str, str, str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("vertex"):
            m = _VERTEX_RE.match(line)
            if not m:
                raise DslParseError("malformed vertex statement", lineno)
            vid, label = m.group(1), m.group(2)
            if vid in vertex_labels:
                raise DslParseError(f"duplicate vertex {vid!r}", lineno)
            vertices.append(vid)
            vertex_labels[vid] = _unescape(label)
        elif line.startswith("arrow"):
            m = _ARROW_RE.match(line)
            if not m:
                raise DslParseError("malformed arrow statement", lineno)
            aid, a_src, a_tar, label = m.groups()
            if aid in arrow_labels:
                raise DslParseError(f"duplicate arrow {aid!r}", lineno)
            arrows.append(aid)
            src[aid] = a_src
            tar[aid] = a_tar
            arrow_labels[aid] = _unescape(label)
        elif line.startswith("eq"):
            m = _EQ_RE.match(line)
            if not m:
                raise DslParseError("malformed eq statement", lineno)
            raw_eqs.append((lineno, m.group(1), m.group(2)))
        elif line.startswith("product"):
            m = _PRODUCT_RE.match(line)
            if not m:
                raise DslParseError("malformed product statement", lineno)
            raw_products.append((lineno, m.groups()))
        else:
            raise DslParseError(f"unknown statement {line.split()[0]!r}", lineno)

    try:
        graph = Graph(tuple(vertices), tuple(arrows), src, tar)
    except OlogError as exc:
        raise DslParseError(str(exc), 1) from exc

    bare = Schema(name=name, graph=graph, vertex_labels=vertex_labels,
                  arrow_labels=arrow_labels)
    equivalences = []
    for lineno, lhs, rhs in raw_eqs:
        try:
            equivalences.append(
                PathEquivalence(path_from_expr(bare, lhs), path_from_expr(bare, rhs))
            )
        except OlogError as exc:
            raise DslParseError(str(exc), lineno) from exc
    products = []
    for lineno, (prod, left, right, p1, p2) in raw_products:
        products.append(ProductAnnotation(prod, left, right, p1, p2))

    try:
        return Schema(
            name=name,
            graph=graph,
            equivalences=tuple(equivalences),
            vertex_labels=vertex_labels,
            arrow_labels=arrow_labels,
            products=tuple(products),
        )
    except OlogError as exc:
        raise DslParseError(str(exc), 1) from exc


def serialize_schema(schema: Schema) -> str:
    """Emit the DSL text; declaration order preserved, hence deterministic."""
    lines: List[str] = []
    for v in schema.graph.vertices:
        lines.append(f'vertex {v} "{_escape(schema.vertex_labels[v])}"')
    if schema.graph.arrows:
        lines.append("")
    for a in schema.graph.arrows:
        lines.append(
            f'arrow {a}: {schema.graph.src[a]} -> {schema.graph.tar[a]} '
            f'"{_escape(schema.arrow_labels[a])}"'
        )
    if schema.equivalences:
        lines.append("")
    for eq in schema.equivalences:
        lines.append(f"eq {eq.lhs} = {eq.rhs}")
    if schema.products:
        lines.append("")
    for pr in schema.products:
        lines.append(
            f"product {pr.product} = {pr.left} * {pr.right} via {pr.proj1}, {pr.proj2}"
        )
    return "\n".join(lines) + "\n"


def _strip_comment(line: str) -> str:
    # A # inside a quoted label does not start a comment.
    out = []
    in_quote = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
        i += 1
    return "".join(out)


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _unescape(label: str) -> str:
    return label.replace('\\"', '"').replace("\\\\", "\\")
