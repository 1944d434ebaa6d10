from __future__ import annotations

import json
import random

import pytest

from ologdb.instance import (
    Instance,
    InvalidInstanceError,
    ProgressiveUpdate,
    UnknownRowError,
    UpdateStructureError,
    apply_update,
    elements,
    eval_path,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    validate,
)
from ologdb.schema import trivial_path

import oracles
from conftest import (
    AMBIENT_1952,
    ARENA_1952,
    INCIDENTAL_1952,
    INSTRUCTION,
    PAIR_1952,
    SCORE,
    SITE_1952,
    T_1952,
    T_1970,
)


# -- validate -------------------------------------------------------------------


def test_premiere_database_is_lawful(db_a):
    assert validate(db_a).ok


def test_empty_instance_is_lawful(schema_a):
    empty = make_instance(schema_a, {}, {})
    assert validate(empty).ok


def corrupt_fulfills(db_a: Instance) -> Instance:
    tables = {v: list(rows) for v, rows in db_a.tables.items()}
    tables["D"].append("an unrelated instruction")
    columns = {a: dict(col) for a, col in db_a.columns.items()}
    columns["u"][T_1952] = "an unrelated instruction"
    return make_instance(db_a.schema, tables, columns)


def test_corrupted_fulfills_cell_yields_one_violation(db_a):
    # Hand evaluation: u now disagrees with j then c exactly at the 1952 row.
    report = validate(corrupt_fulfills(db_a))
    assert report.structurally_ok
    assert len(report.equivalence) == 1
    entry = report.equivalence[0]
    assert entry["equation"] == "u = j.c"
    assert entry["rows"] == [T_1952]


def test_totality_and_dangling_are_reported(schema_a, db_a):
    columns = {a: dict(col) for a, col in db_a.columns.items()}
    del columns["t"][T_1952]
    columns["f"][T_1952] = "nowhere"
    broken = make_instance(schema_a, db_a.tables, columns)
    report = validate(broken)
    assert {"arrow": "t", "row": T_1952, "problem": "missing"} in report.totality
    assert any(d["arrow"] == "f" and d["target"] == "nowhere"
               for d in report.dangling)
    assert not report.ok


def test_report_json_is_stable(db_a):
    report = validate(corrupt_fulfills(db_a))
    first = report.to_json()
    second = validate(corrupt_fulfills(db_a)).to_json()
    assert first == second
    data = json.loads(first)
    assert data["clean"] is False


# -- eval_path ------------------------------------------------------------------


def test_eval_identity(db_a):
    assert eval_path(db_a, trivial_path("M"), SCORE) == SCORE


def test_eval_realization_then_contents(db_a, schema_a):
    p = schema_a.path(("j", "c"))
    assert eval_path(db_a, p, T_1952) == INSTRUCTION


def test_eval_unknown_row(db_a, schema_a):
    with pytest.raises(UnknownRowError):
        eval_path(db_a, schema_a.path(("c",)), "not a score")


def test_eval_composes_stepwise():
    rng = random.Random(0xE7A1)
    for _ in range(50):
        schema = oracles.random_schema(rng, max_vertices=4, max_arrows=6,
                                       n_equations=0)
        inst = oracles.random_instance(rng, schema)
        words = oracles.all_dfs_paths(schema, 3)
        for start, arrows in words:
            if not arrows:
                continue
            p = schema.path(arrows)
            q_arrows, last = arrows[:-1], arrows[-1]
            for row in inst.rows(p.start):
                stepwise = row
                for a in arrows:
                    stepwise = inst.columns[a][stepwise]
                assert eval_path(inst, p, row) == stepwise


# -- progressive updates -----------------------------------------------------------


def _identity(instance):
    return ProgressiveUpdate(
        {v: {r: r for r in instance.rows(v)} for v in instance.tables}
    )


def _then(u, w):
    """Componentwise composite of two updates, u first."""
    return ProgressiveUpdate(
        {v: {r: w.component(v, val) for r, val in comp.items()}
         for v, comp in u.components.items()}
    )


def test_identity_update_is_natural(db_a):
    result = apply_update(db_a, db_a, _identity(db_a))
    assert result.natural


def test_row_insertion_is_natural(db_a, db_a_1970):
    # The 1970 open-air rows extend the premiere database; the inclusion
    # with identity components is a lawful progressive update.
    result = apply_update(db_a, db_a_1970, _identity(db_a))
    assert result.natural


def test_retargeting_action_without_surroundings_breaks_squares(db_a, db_a_1970):
    # Send the 1952 action to the 1970 one but keep every other component
    # the identity.  Both actions share the timeframe row, so the duration
    # square still commutes; the arena, enactor and pairing squares do not.
    components = {v: {r: r for r in db_a.rows(v)} for v in db_a.tables}
    components["T"] = {T_1952: T_1970}
    result = apply_update(db_a, db_a_1970, ProgressiveUpdate(components))
    assert not result.natural
    broken = {v["arrow"] for v in result.violations}
    assert broken == {"f", "e", "w"}
    assert "t" not in broken


def test_update_component_must_cover_source(db_a):
    with pytest.raises(UpdateStructureError):
        apply_update(db_a, db_a, ProgressiveUpdate({"T": {}}))


def test_update_component_rejects_alien_rows(db_a):
    upd = ProgressiveUpdate({"T": {"ghost": T_1952}})
    with pytest.raises(UpdateStructureError):
        apply_update(db_a, db_a, upd)


def test_clean_report_means_rowwise_agreement(db_a, db_s):
    # Independent re-check: empty report implies the two sides of every
    # declared equivalence agree on every row, evaluated stepwise here.
    for inst in (db_a, db_s):
        assert validate(inst).ok
        for eq in inst.schema.equivalences:
            for row in inst.rows(eq.lhs.start):
                left = right = row
                for a in eq.lhs.arrows:
                    left = inst.columns[a][left]
                for a in eq.rhs.arrows:
                    right = inst.columns[a][right]
                assert left == right, (str(eq), row)


def test_insertion_then_identity_composes_naturally(db_a, db_a_1970):
    into = _identity(db_a)
    onward = _identity(db_a_1970)
    assert apply_update(db_a, db_a_1970, into).natural
    assert apply_update(db_a_1970, db_a_1970, onward).natural
    composite = _then(into, onward)
    assert apply_update(db_a, db_a_1970, composite).natural


def test_natural_updates_compose():
    rng = random.Random(0xC0DE)
    hits = 0
    for _ in range(80):
        schema = oracles.random_schema(rng, max_vertices=3, max_arrows=4,
                                       n_equations=0)
        i = oracles.random_instance(rng, schema, max_rows=2)
        u = _identity(i)
        w = _identity(i)
        if not apply_update(i, i, u).natural:
            continue
        comp = _then(u, w)
        assert apply_update(i, i, comp).natural
        hits += 1
    assert hits > 0


# -- category of elements -----------------------------------------------------------


def test_empty_instance_gives_empty_category(schema_a):
    cat = elements(make_instance(schema_a, {}, {}))
    assert cat.objects == () and cat.morphisms == ()


def test_element_count_is_total_row_count(db_a):
    # Twelve tables of one row each in the premiere database.
    cat = elements(db_a)
    assert len(cat.objects) == db_a.total_rows() == 12


def test_fiber_of_action_vertex_with_both_performances(db_a_1970):
    cat = elements(db_a_1970)
    assert len(cat.fiber("T")) == 2
    assert {r for _, r in cat.fiber("T")} == {T_1952, T_1970}


def test_fiber_sizes_match_tables(db_a_1970):
    cat = elements(db_a_1970)
    for v in db_a_1970.schema.graph.vertices:
        assert len(cat.fiber(v)) == len(db_a_1970.rows(v))


def test_discrete_opfibration_out_degree(db_a, db_a_1970):
    for inst in (db_a, db_a_1970):
        cat = elements(inst)
        for obj in cat.objects:
            schema_degree = len(inst.schema.graph.out_arrows(obj[0]))
            assert cat.out_degree(obj) == schema_degree


def test_elements_refuses_invalid_instances(db_a):
    tables = {v: list(rows) for v, rows in db_a.tables.items()}
    columns = {a: dict(col) for a, col in db_a.columns.items()}
    del columns["c"][SCORE]
    with pytest.raises(InvalidInstanceError):
        elements(make_instance(db_a.schema, tables, columns))


# -- JSON round trip ------------------------------------------------------------------


def test_instance_json_roundtrip(db_a, db_a_1970, db_s):
    for inst in (db_a, db_a_1970, db_s):
        data = instance_to_dict(inst)
        again = instance_from_dict(data, inst.schema)
        assert instance_to_dict(again) == data
        assert validate(again).ok
