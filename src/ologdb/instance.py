"""Set-valued instances: one row table per vertex, one foreign-key column per arrow.

An instance is a functor from its schema to finite sets.  Row ids are opaque
caller-supplied strings; arrow columns must be total functions into the
target table.  ``validate`` never raises on bad data, it reports; the other
operations refuse instances whose structure is broken.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from .schema import (
    ArrowId,
    OlogError,
    Path,
    PathEquivalence,
    Schema,
    VertexId,
)


class UnknownRowError(OlogError):
    def __init__(self, vertex: VertexId, row: str) -> None:
        super().__init__(f"row {row!r} is not in table {vertex!r}")
        self.vertex = vertex
        self.row = row


class MissingCellError(OlogError):
    def __init__(self, arrow: ArrowId, row: str) -> None:
        super().__init__(f"row {row!r} has no value for column {arrow!r}")
        self.arrow = arrow
        self.row = row


class InvalidInstanceError(OlogError):
    """Refusal to operate on an instance whose validation report is non-empty."""

    def __init__(self, report: "ValidationReport") -> None:
        super().__init__("instance does not validate:\n" + report.to_json())
        self.report = report


class UpdateStructureError(OlogError):
    """A progressive update references rows or vertices that do not exist."""


@dataclass(frozen=True)
class Instance:
    """Tables plus columns over a schema.  Construction does not validate."""

    schema: Schema
    tables: Mapping[VertexId, Tuple[str, ...]]
    columns: Mapping[ArrowId, Mapping[str, str]]

    def rows(self, vertex: VertexId) -> Tuple[str, ...]:
        return tuple(self.tables.get(vertex, ()))

    def has_row(self, vertex: VertexId, row: str) -> bool:
        return row in self.tables.get(vertex, ())

    def cell(self, arrow: ArrowId, row: str) -> str:
        col = self.columns.get(arrow, {})
        if row not in col:
            raise MissingCellError(arrow, row)
        return col[row]

    def total_rows(self) -> int:
        return sum(len(t) for t in self.tables.values())


def make_instance(
    schema: Schema,
    tables: Mapping[VertexId, Iterable[str]],
    columns: Mapping[ArrowId, Mapping[str, str]],
) -> Instance:
    return Instance(
        schema=schema,
        tables={v: tuple(rows) for v, rows in tables.items()},
        columns={a: dict(col) for a, col in columns.items()},
    )


# -- validation ---------------------------------------------------------------


@dataclass
class ValidationReport:
    """All the ways an instance fails to be a functor.  Empty means lawful."""

    structural: List[str] = field(default_factory=list)
    totality: List[Dict[str, str]] = field(default_factory=list)
    dangling: List[Dict[str, str]] = field(default_factory=list)
    equivalence: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.structural or self.totality or self.dangling or self.equivalence)

    @property
    def structurally_ok(self) -> bool:
        return not (self.structural or self.totality or self.dangling)

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean": self.ok,
            "structural": sorted(self.structural),
            "totality": sorted(self.totality, key=lambda d: (d["arrow"], d["row"])),
            "dangling": sorted(self.dangling, key=lambda d: (d["arrow"], d["row"])),
            "equivalence": sorted(
                self.equivalence, key=lambda d: (str(d["equation"]), str(d["rows"]))
            ),
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def validate(instance: Instance) -> ValidationReport:
    """Check totality, foreign keys, and declared path equivalences row by row.

    Equivalence checking is exact and unbounded; it does not depend on the
    syntactic closure bound used elsewhere.
    """
    report = _check_structure(instance)
    for eq in instance.schema.equivalences:
        bad_rows = differing_rows(instance, eq)
        if bad_rows:
            report.equivalence.append({"equation": str(eq), "rows": bad_rows})
    return report


def _check_structure(instance: Instance) -> ValidationReport:
    """The structural half of ``validate``: tables, totality, foreign keys."""
    schema = instance.schema
    report = ValidationReport()

    for v in instance.tables:
        if not schema.has_vertex(v):
            report.structural.append(f"table {v!r} does not name a schema vertex")
    for v, rows in instance.tables.items():
        seen = set()
        for r in rows:
            if r in seen:
                report.structural.append(f"duplicate row id {r!r} in table {v!r}")
            seen.add(r)
    for a in instance.columns:
        if not schema.graph.has_arrow(a):
            report.structural.append(f"column {a!r} does not name a schema arrow")

    for a in schema.graph.arrows:
        src_v, tar_v = schema.graph.src[a], schema.graph.tar[a]
        col = instance.columns.get(a, {})
        src_rows = set(instance.rows(src_v))
        tar_rows = set(instance.rows(tar_v))
        for r in sorted(src_rows):
            if r not in col:
                report.totality.append({"arrow": a, "row": r, "problem": "missing"})
        for r, val in sorted(col.items()):
            if r not in src_rows:
                report.totality.append(
                    {"arrow": a, "row": r, "problem": "unknown-source-row"}
                )
            elif val not in tar_rows:
                report.dangling.append({"arrow": a, "row": r, "target": val})
    return report


def follow_path(instance: Instance, p: Path, row: str) -> str:
    """Follow p's arrows through the columns from a row of p's source table.

    Raises MissingCellError where a column has no value on the way.
    """
    at = row
    for a in p.arrows:
        at = instance.cell(a, at)
    return at


def differing_rows(instance: Instance, eq: PathEquivalence) -> List[str]:
    """Sorted rows of eq's source table where its two sides evaluate apart.

    Rows where a side is undefined are skipped; ``validate`` reports those
    as totality or dangling problems.
    """
    bad: List[str] = []
    for r in sorted(instance.rows(eq.lhs.start)):
        try:
            if follow_path(instance, eq.lhs, r) != follow_path(instance, eq.rhs, r):
                bad.append(r)
        except MissingCellError:
            continue
    return bad


def eval_path(instance: Instance, p: Path, row: str) -> str:
    """Evaluate a path as a composite of column functions; id is a no-op."""
    if not instance.has_row(p.start, row):
        raise UnknownRowError(p.start, row)
    return follow_path(instance, p, row)


# -- progressive updates ------------------------------------------------------


@dataclass(frozen=True)
class ProgressiveUpdate:
    """Candidate natural transformation between two instances, by components."""

    components: Mapping[VertexId, Mapping[str, str]]

    def component(self, vertex: VertexId, row: str) -> str:
        comp = self.components.get(vertex, {})
        if row not in comp:
            raise UpdateStructureError(
                f"component at vertex {vertex!r} does not cover row {row!r}"
            )
        return comp[row]


@dataclass(frozen=True)
class UpdateResult:
    natural: bool
    violations: Tuple[Dict[str, str], ...] = ()


def apply_update(i: Instance, j: Instance, u: ProgressiveUpdate) -> UpdateResult:
    """Check every naturality square of u between instances i and j.

    Row insertions (i embedded in j with identity components) always pass.
    Structural problems (components off the tables) raise; square failures
    are reported as violations.
    """
    if i.schema.name != j.schema.name:
        raise UpdateStructureError(
            f"instances live over different schemas "
            f"({i.schema.name!r} vs {j.schema.name!r})"
        )
    for v, comp in u.components.items():
        if not i.schema.has_vertex(v):
            raise UpdateStructureError(f"component names unknown vertex {v!r}")
        i_rows, j_rows = set(i.rows(v)), set(j.rows(v))
        for r, val in comp.items():
            if r not in i_rows:
                raise UpdateStructureError(
                    f"component at {v!r} maps row {r!r} absent from the source"
                )
            if val not in j_rows:
                raise UpdateStructureError(
                    f"component at {v!r} sends {r!r} to {val!r}, "
                    f"absent from the target"
                )
    for v in i.tables:
        if i.rows(v):
            # totality of the transformation itself
            for r in i.rows(v):
                u.component(v, r)

    violations: List[Dict[str, str]] = []
    for a in i.schema.graph.arrows:
        src_v, tar_v = i.schema.graph.src[a], i.schema.graph.tar[a]
        for r in i.rows(src_v):
            try:
                via_i = u.component(tar_v, i.cell(a, r))
                via_j = j.cell(a, u.component(src_v, r))
            except OlogError as exc:
                raise UpdateStructureError(str(exc)) from exc
            if via_i != via_j:
                violations.append({"arrow": a, "row": r})
    return UpdateResult(natural=not violations, violations=tuple(violations))


# -- category of elements -----------------------------------------------------


@dataclass(frozen=True)
class ElementsMorphism:
    arrow: ArrowId
    row: str
    source: Tuple[VertexId, str]
    target: Tuple[VertexId, str]


@dataclass(frozen=True)
class ElementsCategory:
    """The Grothendieck construction of an instance, with its projection."""

    objects: Tuple[Tuple[VertexId, str], ...]
    morphisms: Tuple[ElementsMorphism, ...]

    def fiber(self, vertex: VertexId) -> Tuple[Tuple[VertexId, str], ...]:
        return tuple(o for o in self.objects if o[0] == vertex)

    def out_degree(self, obj: Tuple[VertexId, str]) -> int:
        return sum(1 for m in self.morphisms if m.source == obj)


def elements(instance: Instance) -> ElementsCategory:
    """Build the category of elements; refuses invalid instances."""
    report = validate(instance)
    if not report.ok:
        raise InvalidInstanceError(report)
    schema = instance.schema
    objects = tuple(
        (v, r) for v in schema.graph.vertices for r in instance.rows(v)
    )
    morphisms = []
    for a in schema.graph.arrows:
        src_v, tar_v = schema.graph.src[a], schema.graph.tar[a]
        for r in instance.rows(src_v):
            morphisms.append(
                ElementsMorphism(a, r, (src_v, r), (tar_v, instance.cell(a, r)))
            )
    return ElementsCategory(objects, tuple(morphisms))


# -- JSON interchange ---------------------------------------------------------


def json_text(data: object) -> str:
    """The JSON text of every output: sorted keys, raw UTF-8, two-space indent."""
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2)


def instance_to_dict(instance: Instance) -> Dict[str, object]:
    graph = instance.schema.graph
    tables: Dict[str, List[Dict[str, object]]] = {}
    for v in sorted(instance.tables):
        # The columns of the schema arrows out of v, by arrow name.
        out = [(a, col) for a, col in sorted(instance.columns.items())
               if graph.has_arrow(a) and graph.src[a] == v]
        tables[v] = [
            {"id": r, "cols": {a: col[r] for a, col in out if r in col}}
            for r in sorted(instance.rows(v))
        ]
    return {"schema": instance.schema.name, "tables": tables}


def instance_to_json(instance: Instance) -> str:
    return json_text(instance_to_dict(instance))


def instance_from_dict(data: Mapping[str, object], schema: Schema) -> Instance:
    if not isinstance(data, Mapping):
        raise OlogError("an instance must be a JSON object")
    if data.get("schema") != schema.name:
        raise OlogError(
            f"instance is over schema {data.get('schema')!r}, expected {schema.name!r}"
        )
    tables: Dict[str, List[str]] = {}
    columns: Dict[str, Dict[str, str]] = {}
    raw_tables = data.get("tables", {})
    if not isinstance(raw_tables, Mapping):
        raise OlogError("instance 'tables' must be an object")
    for v, rows in raw_tables.items():
        tables[v] = []
        if not isinstance(rows, list):
            raise OlogError(f"table {v!r} must be a list of rows")
        for row in rows:
            if not isinstance(row, Mapping) or "id" not in row:
                raise OlogError(f"rows of table {v!r} need an 'id' field")
            rid = row["id"]
            if not isinstance(rid, str):
                raise OlogError(f"row id {rid!r} in table {v!r} must be a string")
            tables[v].append(rid)
            cols = row.get("cols", {})
            if not isinstance(cols, Mapping):
                raise OlogError(f"row {rid!r} has a malformed 'cols' object")
            for a, target in cols.items():
                if not isinstance(target, str):
                    raise OlogError(
                        f"cell {a!r} of row {rid!r} in table {v!r} must be a string"
                    )
                columns.setdefault(a, {})[rid] = target
    return make_instance(schema, tables, columns)


def instance_from_json(text: str, schema: Schema) -> Instance:
    return instance_from_dict(json.loads(text), schema)
