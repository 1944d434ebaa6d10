"""Command-line front end.

Exit codes: 0 success and clean, 1 domain violations found, 2 bad input
(parse errors, unresolved references, structural errors).  All output is
deterministic: JSON keys are sorted and node/edge order is fixed by
declaration order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Dict, Iterable, Optional, Sequence

from .dsl import parse_schema, serialize_schema
from .instance import (
    Instance,
    elements,
    instance_from_dict,
    instance_to_json,
    json_text,
    validate,
)
from .migration import (
    SigmaMode,
    Translation,
    TranslationError,
    sigma,
    translation_from_dict,
    translation_to_dict,
)
from .colimit import pushout_schemas
from .schema import OlogError, Schema
from .specfiber import (
    entailment_order,
    order_to_dict,
    parse_asserted,
    parse_specification,
    render_hasse,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_INPUT = 2


def _read_text(path: FsPath) -> str:
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise OlogError(
            f"{path.name} is not UTF-8 text: byte {exc.start} ({exc.reason})"
        ) from None


@dataclass
class Workspace:
    """Schemas, instances and translations resolved by name at load time."""

    schemas: Dict[str, Schema] = field(default_factory=dict)

    def add_search_paths(self, paths: Iterable[FsPath]) -> None:
        for path in paths:
            if path.is_dir():
                for child in sorted(path.glob("*.olog")):
                    self._load_schema_file(child)
            elif path.suffix == ".olog" and path.exists():
                self._load_schema_file(path)

    def _load_schema_file(self, path: FsPath) -> None:
        name = path.stem
        if name not in self.schemas:
            self.schemas[name] = parse_schema(_read_text(path), name)

    def schema(self, name: str) -> Schema:
        if not isinstance(name, str) or name not in self.schemas:
            raise OlogError(
                f"schema {name!r} is not on the search path; pass --schemas"
            )
        return self.schemas[name]


def _workspace_for(files: Sequence[FsPath], extra: Sequence[str]) -> Workspace:
    ws = Workspace()
    ws.add_search_paths([FsPath(e) for e in extra])
    ws.add_search_paths([f.parent for f in files])
    ws.add_search_paths([f for f in files if f.suffix == ".olog"])
    return ws


def _load_instance(path: FsPath, ws: Workspace,
                   expect: Optional[str] = None) -> Instance:
    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise OlogError(f"instance {path.name} must be a JSON object")
    name = data.get("schema", "")
    if expect is not None and name != expect:
        raise OlogError(
            f"instance {path.name} is over schema {name!r}, "
            f"but {expect!r} was given"
        )
    schema = ws.schema(name)
    return instance_from_dict(data, schema)


def _load_translation(path: FsPath, ws: Workspace) -> Translation:
    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise TranslationError(f"translation {path.name} must be a JSON object")
    return translation_from_dict(
        data, ws.schema(data.get("source", "")), ws.schema(data.get("target", ""))
    )


def _schema_dot(schema: Schema) -> str:
    lines = [f'digraph "{schema.name}" {{']
    lines.append('  rankdir="TB";')
    lines.append('  node [shape="box"];')
    for v in schema.graph.vertices:
        label = schema.vertex_labels[v].replace('"', '\\"')
        lines.append(f'  "{v}" [label="{label}"];')
    for a in schema.graph.arrows:
        label = schema.arrow_labels[a].replace('"', '\\"')
        lines.append(
            f'  "{schema.graph.src[a]}" -> "{schema.graph.tar[a]}" '
            f'[label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _elements_dot(instance: Instance) -> str:
    cat = elements(instance)
    lines = ["digraph elements {"]
    lines.append('  rankdir="TB";')
    lines.append('  node [shape="point"];')
    idx = {obj: i for i, obj in enumerate(cat.objects)}
    for obj, i in idx.items():
        label = f"{obj[1]}".replace('"', '\\"')
        lines.append(f'  n{i} [xlabel="{label}"];')
    for m in cat.morphisms:
        lines.append(f"  n{idx[m.source]} -> n{idx[m.target]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_validate(args: argparse.Namespace) -> int:
    files = [FsPath(args.schema), FsPath(args.instance)]
    ws = _workspace_for(files, args.schemas)
    instance = _load_instance(FsPath(args.instance), ws,
                              expect=FsPath(args.schema).stem)
    report = validate(instance)
    print(report.to_json())
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_migrate(args: argparse.Namespace) -> int:
    files = [FsPath(args.translation), FsPath(args.instance)]
    ws = _workspace_for(files, args.schemas)
    translation = _load_translation(FsPath(args.translation), ws)
    instance = _load_instance(FsPath(args.instance), ws)
    mode = SigmaMode.COLIMIT if args.mode == "colimit" else SigmaMode.DISJOINT_UNION
    result = sigma(translation, instance, mode, max_len=args.max_len)
    print(instance_to_json(result))
    return EXIT_OK


def cmd_pushout(args: argparse.Namespace) -> int:
    files = [FsPath(args.phi), FsPath(args.psi)]
    ws = _workspace_for(files, args.schemas)
    phi = _load_translation(FsPath(args.phi), ws)
    psi = _load_translation(FsPath(args.psi), ws)
    po = pushout_schemas(phi, psi)
    sys.stdout.write(serialize_schema(po.result))
    print("#--- injections ---")
    print(json_text({"inject_b": translation_to_dict(po.inject_b),
                     "inject_c": translation_to_dict(po.inject_c)}))
    return EXIT_OK


def cmd_elements(args: argparse.Namespace) -> int:
    files = [FsPath(args.schema), FsPath(args.instance)]
    ws = _workspace_for(files, args.schemas)
    instance = _load_instance(FsPath(args.instance), ws,
                              expect=FsPath(args.schema).stem)
    if args.format == "dot":
        sys.stdout.write(_elements_dot(instance))
        return EXIT_OK
    cat = elements(instance)
    out = {
        "objects": [[v, r] for v, r in cat.objects],
        "morphisms": [
            {"arrow": m.arrow, "row": m.row, "source": list(m.source),
             "target": list(m.target)}
            for m in cat.morphisms
        ],
        "fibers": {
            v: [r for _, r in cat.fiber(v)] for v in instance.schema.graph.vertices
        },
    }
    print(json_text(out))
    return EXIT_OK


def cmd_lattice(args: argparse.Namespace) -> int:
    files = [FsPath(args.spec), FsPath(args.asserted), FsPath(args.schema)]
    ws = _workspace_for(files, args.schemas)
    schema = ws.schema(FsPath(args.schema).stem)
    spec = parse_specification(_read_text(FsPath(args.spec)), schema)
    asserted = parse_asserted(_read_text(FsPath(args.asserted)))
    order = entailment_order(spec, max_len=args.max_len, asserted=asserted)
    if args.format == "json":
        print(json_text(order_to_dict(order)))
    else:
        sys.stdout.write(render_hasse(order))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    path = FsPath(args.schema)
    schema = parse_schema(_read_text(path), path.stem)
    sys.stdout.write(_schema_dot(schema))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olog",
        description="Categorical database engine over olog schemas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--schemas",
            action="append",
            default=[],
            metavar="PATH",
            help="extra schema files or directories (defaults to input dirs)",
        )

    p = sub.add_parser("validate", help="check an instance against its schema")
    p.add_argument("schema")
    p.add_argument("instance")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("migrate", help="push an instance forward along a translation")
    p.add_argument("translation")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["colimit", "disjoint"], default="colimit")
    p.add_argument("--max-len", type=int, default=8)
    add_common(p)
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("pushout", help="glue two schemas along a span")
    p.add_argument("phi")
    p.add_argument("psi")
    add_common(p)
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("elements", help="emit the category of elements")
    p.add_argument("schema")
    p.add_argument("instance")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    add_common(p)
    p.set_defaults(func=cmd_elements)

    p = sub.add_parser("lattice", help="entailment order of a specification")
    p.add_argument("spec")
    p.add_argument("asserted")
    p.add_argument("--schema", required=True)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("render", help="emit a schema as Graphviz DOT")
    p.add_argument("schema")
    add_common(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OlogError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
