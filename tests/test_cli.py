from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ologdb import fixtures_api as fx
from ologdb.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VIOLATIONS, main

from conftest import AMBIENT_1952, INCIDENTAL_1952, PAIR_1952, T_1952

FIXDIR = str(fx.fixture_path("A.olog").parent)


def fixture(name: str) -> str:
    return str(fx.fixture_path(name))


def fixture_argv(argv):
    """Resolve fixture file names in an argv to their bundled paths."""
    return [
        fixture(x) if x.endswith((".olog", ".json", ".spec", ".asserted")) else x
        for x in argv
    ]


def run_cli(*argv: str):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# -- validate -----------------------------------------------------------------


def test_validate_premiere_fixture_clean():
    code, out = run_cli("validate", fixture("A.olog"), fixture("DA.json"))
    assert code == EXIT_OK
    assert json.loads(out)["clean"] is True


def test_validate_empty_instance(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": "A", "tables": {}}), "utf-8")
    code, out = run_cli(
        "validate", fixture("A.olog"), str(empty), "--schemas", FIXDIR
    )
    assert code == EXIT_OK


def test_validate_corrupted_fixture_exits_one(tmp_path):
    data = json.loads(Path(fixture("DA.json")).read_text("utf-8"))
    data["tables"]["D"].append({"id": "junk", "cols": {}})
    for row in data["tables"]["T"]:
        row["cols"]["u"] = "junk"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), "utf-8")
    code, out = run_cli("validate", fixture("A.olog"), str(bad),
                        "--schemas", FIXDIR)
    assert code == EXIT_VIOLATIONS
    report = json.loads(out)
    assert len(report["equivalence"]) == 1
    assert report["equivalence"][0]["rows"] == [T_1952]


def test_validate_parse_error_exits_two(tmp_path):
    garbled = tmp_path / "garbled.olog"
    garbled.write_text("vertex broken\n", "utf-8")
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"schema": "garbled", "tables": {}}), "utf-8")
    code, _ = run_cli("validate", str(garbled), str(inst))
    assert code == EXIT_BAD_INPUT


def _validate_malformed(tmp_path, capsys, data):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data), "utf-8")
    code, out = run_cli("validate", fixture("A.olog"), str(bad), "--schemas", FIXDIR)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_validate_top_level_list_exits_two(tmp_path, capsys):
    err = _validate_malformed(tmp_path, capsys, [{"schema": "A", "tables": {}}])
    assert "JSON object" in err


def test_validate_integer_row_id_exits_two(tmp_path, capsys):
    data = json.loads(Path(fixture("DA.json")).read_text("utf-8"))
    data["tables"]["D"][0]["id"] = 7
    err = _validate_malformed(tmp_path, capsys, data)
    assert "row id 7 in table 'D'" in err


def test_validate_list_valued_cell_exits_two(tmp_path, capsys):
    data = json.loads(Path(fixture("DA.json")).read_text("utf-8"))
    row = data["tables"]["T"][0]
    arrow = sorted(row["cols"])[0]
    row["cols"][arrow] = [row["cols"][arrow]]
    err = _validate_malformed(tmp_path, capsys, data)
    assert f"cell {arrow!r} of row {row['id']!r} in table 'T'" in err


# -- migrate -------------------------------------------------------------------


def test_migrate_disjoint_reproduces_union_table():
    code, out = run_cli(
        "migrate", fixture("psi.json"), fixture("DA.json"), "--mode", "disjoint"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    ids = [row["id"] for row in data["tables"]["A"]]
    assert sorted(ids) == sorted([AMBIENT_1952, INCIDENTAL_1952, PAIR_1952])


def test_migrate_colimit_quotients_pair():
    code, out = run_cli(
        "migrate", fixture("psi.json"), fixture("DA.json"), "--mode", "colimit"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert [row["id"] for row in data["tables"]["A"]] == [PAIR_1952]


def test_migrate_identity_roundtrip(tmp_path):
    ident = tmp_path / "ident.json"
    ident.write_text(
        json.dumps(
            {
                "source": "A",
                "target": "A",
                "vmap": {v: v for v in fx.schema_a().graph.vertices},
                "amap": {a: [a] for a in fx.schema_a().graph.arrows},
            }
        ),
        "utf-8",
    )
    code, out = run_cli("migrate", str(ident), fixture("DA.json"),
                        "--schemas", FIXDIR)
    assert code == EXIT_OK
    from ologdb.instance import instance_to_dict

    got = json.loads(out)
    assert got == json.loads(json.dumps(instance_to_dict(fx.db_a())))


def test_migrate_bad_translation_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"source": "A", "target": "C", "vmap": {},
                               "amap": {"zz": ["zz"]}}), "utf-8")
    code, _ = run_cli("migrate", str(bad), fixture("DA.json"), "--schemas", FIXDIR)
    assert code == EXIT_BAD_INPUT


def _migrate_malformed(tmp_path, capsys, raw: bytes) -> str:
    bad = tmp_path / "malformed.json"
    bad.write_bytes(raw)
    code, out = run_cli("migrate", str(bad), fixture("DA.json"), "--schemas", FIXDIR)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _identity_a() -> dict:
    return {
        "source": "A",
        "target": "A",
        "vmap": {v: v for v in fx.schema_a().graph.vertices},
        "amap": {a: [a] for a in fx.schema_a().graph.arrows},
    }


def test_migrate_top_level_list_translation_exits_two(tmp_path, capsys):
    err = _migrate_malformed(tmp_path, capsys, json.dumps([_identity_a()]).encode())
    assert "must be a JSON object" in err


@pytest.mark.parametrize("key", ["vmap", "amap"])
def test_migrate_null_map_exits_two(tmp_path, capsys, key):
    data = _identity_a()
    data[key] = None
    err = _migrate_malformed(tmp_path, capsys, json.dumps(data).encode())
    assert repr(key) in err


def test_migrate_non_utf8_translation_exits_two(tmp_path, capsys):
    text = json.dumps(_identity_a()).replace('"A"', '"Ä"', 1)
    err = _migrate_malformed(tmp_path, capsys, text.encode("latin-1"))
    assert "malformed.json" in err and "UTF-8" in err


def test_migrate_list_valued_schema_name_exits_two(tmp_path, capsys):
    data = _identity_a()
    data["source"] = ["A"]
    err = _migrate_malformed(tmp_path, capsys, json.dumps(data).encode())
    assert "['A']" in err


def test_migrate_string_amap_word_exits_two(tmp_path, capsys):
    # A bare string is not a word, even when its characters spell arrow ids.
    data = _identity_a()
    data["amap"]["u"] = "u"
    err = _migrate_malformed(tmp_path, capsys, json.dumps(data).encode())
    assert "'u'" in err and "list" in err


# -- pushout -------------------------------------------------------------------


def test_pushout_core_span_has_single_actant_class():
    code, out = run_cli("pushout", fixture("phi_core.json"),
                        fixture("psi_core.json"))
    assert code == EXIT_OK
    dsl_part = out.split("#--- injections ---")[0]
    assert 'vertex J+L "a set of actants"' in dsl_part
    assert dsl_part.count("vertex ") == 11
    injections = json.loads(out.split("#--- injections ---")[1])
    assert injections["inject_b"]["vmap"]["J"] == "J+L"
    assert injections["inject_c"]["vmap"]["J"] == "J+L"


def test_pushout_full_span_also_runs():
    code, out = run_cli("pushout", fixture("phi.json"), fixture("psi.json"))
    assert code == EXIT_OK
    dsl_part = out.split("#--- injections ---")[0]
    assert dsl_part.count("vertex ") == 9
    assert "vertex A+E+K " in dsl_part
    assert 'vertex J+L "a set of actants"' in dsl_part


def test_pushout_output_reparses():
    from ologdb.dsl import parse_schema

    _, out = run_cli("pushout", fixture("phi_core.json"), fixture("psi_core.json"))
    dsl_part = out.split("#--- injections ---")[0]
    schema = parse_schema(dsl_part, "S2")
    assert len(schema.graph.arrows) == 30


# -- elements ------------------------------------------------------------------


def test_elements_json_counts():
    code, out = run_cli("elements", fixture("A.olog"), fixture("DA.json"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["objects"]) == 12
    assert len(data["morphisms"]) == 16
    assert data["fibers"]["T"] == [T_1952]


def test_elements_dot():
    code, out = run_cli("elements", fixture("A.olog"), fixture("DA.json"),
                        "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph elements {")
    assert out.count("->") == 16


# -- lattice -------------------------------------------------------------------


def test_lattice_dot_and_json():
    code, dot = run_cli(
        "lattice", fixture("E.spec"), fixture("lattice.asserted"),
        "--schema", fixture("S.olog"),
    )
    assert code == EXIT_OK
    assert dot.count("->") == 15
    code, blob = run_cli(
        "lattice", fixture("E.spec"), fixture("lattice.asserted"),
        "--schema", fixture("S.olog"), "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(blob)
    assert len(data["nodes"]) == 14
    assert len(data["hasse"]) == 15


# -- render --------------------------------------------------------------------


def test_render_schema_dot():
    code, out = run_cli("render", fixture("S.olog"))
    assert code == EXIT_OK
    assert out.startswith('digraph "S" {')
    assert out.count("->") == 24


# -- determinism (byte-identical reruns) ------------------------------------------


COMMANDS = [
    ("validate", "A.olog", "DA.json"),
    ("migrate", "psi.json", "DA.json", "--mode", "disjoint"),
    ("migrate", "psi.json", "DA.json", "--mode", "colimit"),
    ("pushout", "phi_core.json", "psi_core.json"),
    ("pushout", "phi.json", "psi.json"),
    ("elements", "A.olog", "DA.json"),
    ("render", "S.olog"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:3]))
def test_commands_are_deterministic(argv):
    full = fixture_argv(argv)
    code1, out1 = run_cli(*full)
    code2, out2 = run_cli(*full)
    assert code1 == code2
    assert out1.encode() == out2.encode()


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text("utf-8"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: "-".join(e["argv"]))
def test_golden_cli_digests(entry, capsys):
    # Exit code and SHA-256 of stdout and stderr, recorded from the fixtures.
    code = main(fixture_argv(entry["argv"]))
    out, err = capsys.readouterr()
    assert code == entry["exit"]
    assert _sha256(out) == entry["stdout_sha256"]
    assert _sha256(err) == entry["stderr_sha256"]


def test_lattice_deterministic():
    argv = [
        "lattice", fixture("E.spec"), fixture("lattice.asserted"),
        "--schema", fixture("S.olog"),
    ]
    assert run_cli(*argv) == run_cli(*argv)


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ologdb", "validate", fixture("A.olog"),
         fixture("DA.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["clean"] is True
