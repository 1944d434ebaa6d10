"""Seeded input generators for the benchmark, with their own checks.

Every generator takes a ``random.Random`` that the caller seeds from
(seed, op index), so the same seed gives the same inputs and no two ops
share one.  Row ids, arrow names and element ids carry a per-op token for
the same reason.  Each generator checks what it produced with code of its
own (plain dict lookups and a BFS), never with the library under test, and
raises ``GeneratorError`` if its output is not what it promises.

Standard library only.
"""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Dict, List, Sequence, Tuple


class GeneratorError(Exception):
    """A generator produced output that breaks its own contract."""


# -- instances of fixture schema A --------------------------------------------

# The arrows of fixture schema A (name, source, target) and its declared
# equations as (lhs word, rhs word), in file order.  Kept here so the checks
# below do not depend on the library's parser.
A_ARROWS: Tuple[Tuple[str, str, str], ...] = (
    ("c", "M", "D"), ("j", "T", "M"), ("u", "T", "D"), ("w", "T", "B"),
    ("e", "T", "J"), ("f", "T", "G"), ("t", "T", "Z"), ("a", "G", "Z"),
    ("s", "B", "M"), ("P", "B", "J"), ("d", "A", "G"), ("X", "A", "E"),
    ("Y", "A", "K"), ("p", "Q", "E"), ("h", "K", "L"), ("l", "Q", "L"),
)
A_VERTICES = ("M", "J", "D", "T", "G", "Z", "B", "A", "E", "K", "Q", "L")
A_EQUATIONS: Tuple[Tuple[str, str], ...] = (
    ("u", "j.c"), ("t", "f.a"), ("j", "w.s"), ("e", "w.P"),
)
# Parallel path pairs out of T that facts over A may equate.
A_FACT_EQUATIONS: Tuple[Tuple[str, str], ...] = A_EQUATIONS + (
    ("u", "w.s.c"), ("j.c", "w.s.c"),
)
# Which column a planted violation perturbs, per schema equation.
_PLANT_KINDS = ("u", "t", "j", "e")

Tables = Dict[str, List[str]]
Columns = Dict[str, Dict[str, str]]


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(32):08x}"


def _skewed(rng: random.Random, pool: Sequence[str], k: int) -> List[str]:
    """k draws from pool with Zipf-like weights, so a few rows dominate."""
    cum, total = [], 0.0
    for rank in range(len(pool)):
        total += 1.0 / (rank + 1) ** 1.1
        cum.append(total)
    return rng.choices(pool, cum_weights=cum, k=k)


def _other(rng: random.Random, pool: Sequence[str], avoid: str) -> str:
    while True:
        pick = rng.choice(pool)
        if pick != avoid:
            return pick


def eval_word(columns: Columns, word: str, row: str) -> str:
    at = row
    for arrow in word.split("."):
        at = columns[arrow][at]
    return at


def violations(tables: Tables, columns: Columns,
               equations: Sequence[Tuple[str, str]]) -> Dict[str, List[str]]:
    """Rows of T breaking each equation, as 'lhs = rhs' -> sorted rows."""
    out: Dict[str, List[str]] = {}
    for lhs, rhs in equations:
        bad = sorted(r for r in tables["T"]
                     if eval_word(columns, lhs, r) != eval_word(columns, rhs, r))
        if bad:
            out[f"{lhs} = {rhs}"] = bad
    return out


def _check_structure(tables: Tables, columns: Columns) -> None:
    for v in A_VERTICES:
        if len(set(tables[v])) != len(tables[v]):
            raise GeneratorError(f"duplicate row ids in table {v}")
    for arrow, src, tar in A_ARROWS:
        col = columns[arrow]
        if set(col) != set(tables[src]):
            raise GeneratorError(f"column {arrow} is not total on {src}")
        targets = set(tables[tar])
        if any(val not in targets for val in col.values()):
            raise GeneratorError(f"column {arrow} dangles out of {tar}")


def _add_rows(rng: random.Random, tables: Tables, columns: Columns,
              pool: int, n_actions: int, tag: str, gen: str) -> List[str]:
    """Append ``pool`` rows to every table but T and ``n_actions`` to T.

    New rows point at old and new rows alike.  Returns the new T rows, all
    satisfying A's equations.
    """
    def fresh(v: str) -> List[str]:
        rows = [f"{v}{gen}{k}.{tag}" for k in range(pool)]
        tables[v].extend(rows)
        return rows

    for v in ("D", "J", "Z", "E", "K", "L"):
        fresh(v)
    for m in fresh("M"):
        columns["c"][m] = rng.choice(tables["D"])
    for b in fresh("B"):
        columns["s"][b] = rng.choice(tables["M"])
        columns["P"][b] = rng.choice(tables["J"])
    for g in fresh("G"):
        columns["a"][g] = rng.choice(tables["Z"])
    for k in tables["K"][-pool:]:
        columns["h"][k] = rng.choice(tables["L"])
    for a in fresh("A"):
        columns["d"][a] = rng.choice(tables["G"])
        columns["X"][a] = rng.choice(tables["E"])
        columns["Y"][a] = rng.choice(tables["K"])
    for q in fresh("Q"):
        columns["p"][q] = rng.choice(tables["E"])
        columns["l"][q] = rng.choice(tables["L"])

    actions = [f"T{gen}{k}.{tag}" for k in range(n_actions)]
    pairs = _skewed(rng, tables["B"], n_actions)
    arenas = _skewed(rng, tables["G"], n_actions)
    for t, b, g in zip(actions, pairs, arenas):
        columns["w"][t] = b
        columns["j"][t] = columns["s"][b]
        columns["e"][t] = columns["P"][b]
        columns["u"][t] = columns["c"][columns["j"][t]]
        columns["f"][t] = g
        columns["t"][t] = columns["a"][g]
    tables["T"].extend(actions)
    return actions


def instance_json(tables: Tables, columns: Columns) -> str:
    """Encode tables and columns in the instance JSON format the CLI reads."""
    out: Dict[str, List[Dict[str, object]]] = {}
    outgoing: Dict[str, List[str]] = {v: [] for v in A_VERTICES}
    for arrow, src, _ in A_ARROWS:
        outgoing[src].append(arrow)
    for v in A_VERTICES:
        out[v] = [
            {"id": r, "cols": {a: columns[a][r] for a in outgoing[v]}}
            for r in tables[v]
        ]
    return json.dumps({"schema": "A", "tables": out}, ensure_ascii=False)


def schema_a_instance(rng: random.Random, n_actions: int) -> Tuple[Tables, Columns]:
    """A lawful, skewed instance of schema A.

    Every table but T has ``n_actions // 10`` rows, so about 2.1 rows per
    action in all, and actions pick their score/performer pair and their
    arena from a Zipf-like distribution.
    """
    pool = max(2, n_actions // 10)
    tag = _token(rng)
    tables: Tables = {v: [] for v in A_VERTICES}
    columns: Columns = {a: {} for a, _, _ in A_ARROWS}
    _add_rows(rng, tables, columns, pool, n_actions, tag, "")
    _check_structure(tables, columns)
    if violations(tables, columns, A_EQUATIONS):
        raise GeneratorError("base instance breaks a schema equation")
    return tables, columns


def ingest_case(rng: random.Random, n_actions: int) -> Dict[str, object]:
    """Base instance, a delta with planted violations, and three facts.

    The delta is the base plus about 10% new rows.  One new action in five
    breaks exactly one of A's equations; ``planted`` lists them per
    equation.  ``counterexamples`` lists, per fact, what ``satisfies`` must
    report on the delta.
    """
    tables, columns = schema_a_instance(rng, n_actions)
    base_text = instance_json(tables, columns)
    base_rows = sum(len(rows) for rows in tables.values())
    morphisms = sum(len(tables[src]) for _, src, _ in A_ARROWS)

    pool = max(2, n_actions // 100)
    new_actions = _add_rows(rng, tables, columns, pool, max(5, n_actions // 10),
                            _token(rng), "n")
    planted: Dict[str, List[str]] = {}
    for t in rng.sample(new_actions, len(new_actions) // 5):
        kind = rng.choice(_PLANT_KINDS)
        if kind == "u":
            columns["u"][t] = _other(rng, tables["D"], columns["u"][t])
        elif kind == "t":
            columns["t"][t] = _other(rng, tables["Z"], columns["t"][t])
        elif kind == "e":
            columns["e"][t] = _other(rng, tables["J"], columns["e"][t])
        else:
            scores = tables["M"]
            columns["j"][t] = _other(rng, scores, columns["s"][columns["w"][t]])
            columns["u"][t] = columns["c"][columns["j"][t]]
        lhs, rhs = next(eq for eq in A_EQUATIONS if eq[0] == kind)
        planted.setdefault(f"{lhs} = {rhs}", []).append(t)
    planted = {eq: sorted(rows) for eq, rows in planted.items()}
    _check_structure(tables, columns)
    if violations(tables, columns, A_EQUATIONS) != planted:
        raise GeneratorError("delta violations differ from the planted set")

    facts = []
    for k in range(3):
        eqs = rng.sample(A_FACT_EQUATIONS, rng.randint(1, 2))
        bad = violations(tables, columns, eqs)
        facts.append({
            "name": f"F{k}",
            "text": f"fact F{k} {{ " + " ; ".join(f"{l} = {r}" for l, r in eqs) + " }",
            "counterexamples": [(f"{l} = {r}", row) for l, r in eqs
                                for row in bad.get(f"{l} = {r}", [])],
        })
    return {
        "base": base_text,
        "delta": instance_json(tables, columns),
        "planted": planted,
        "facts": facts,
        "base_rows": base_rows,
        "delta_rows": sum(len(rows) for rows in tables.values()),
        "base_morphisms": morphisms,
    }


def migrate_case(rng: random.Random, n_actions: int,
                 vmap: Dict[str, str]) -> Dict[str, object]:
    """A lawful instance of A and the row count of each disjoint-union table.

    ``vmap`` is the vertex map of the translation, read from its JSON file.
    """
    tables, columns = schema_a_instance(rng, n_actions)
    disjoint_rows: Dict[str, int] = {}
    for v, rows in tables.items():
        disjoint_rows[vmap[v]] = disjoint_rows.get(vmap[v], 0) + len(rows)
    return {"instance": instance_json(tables, columns), "disjoint_rows": disjoint_rows}


# -- cyclic schemas and specifications -----------------------------------------


def cyclic_schema(rng: random.Random) -> Tuple[str, str, List[Tuple[str, str, str]]]:
    """Two vertices, four arrows, each vertex with one loop and one arrow out.

    Every vertex has out-degree 2, so there are 2**(k+1) paths of length k
    and the path universe has a fixed size at each bound; only the names
    change from op to op.
    """
    tag = _token(rng)
    x, y = f"X{tag}", f"Y{tag}"
    names = [f"a{k}{tag}" for k in range(4)]
    rng.shuffle(names)
    arrows = [(names[0], x, x), (names[1], x, y), (names[2], y, x), (names[3], y, y)]
    lines = [f'vertex {x} "a state"', f'vertex {y} "another state"']
    lines += [f'arrow {a}: {s} -> {t} "step"' for a, s, t in arrows]
    return f"S{tag}", "\n".join(lines) + "\n", arrows


def _parallel_words(arrows: Sequence[Tuple[str, str, str]],
                    max_len: int) -> Dict[Tuple[str, str], List[str]]:
    """Arrow words of length 1..max_len, grouped by (start, end)."""
    out: Dict[Tuple[str, str], List[str]] = {}
    frontier = [((a,), s, t) for a, s, t in arrows]
    for _ in range(max_len):
        nxt = []
        for word, start, end in frontier:
            out.setdefault((start, end), []).append(".".join(word))
            nxt.extend((word + (a,), start, t) for a, s, t in arrows if s == end)
        frontier = nxt
    return out


def specification(rng: random.Random, arrows: Sequence[Tuple[str, str, str]],
                  n_facts: int, n_asserted: int) -> Tuple[str, str, List[str]]:
    """Spec text with n_facts facts of 1-3 equations between parallel paths
    of length <= 3, plus asserted-order text over its facts."""
    groups = [ws for ws in _parallel_words(arrows, 3).values() if len(ws) >= 2]
    names = [f"F{k}" for k in range(n_facts)]
    lines = []
    for name in names:
        eqs = []
        for _ in range(rng.randint(1, 3)):
            lhs, rhs = rng.sample(rng.choice(groups), 2)
            eqs.append(f"{lhs} = {rhs}")
        lines.append(f"fact {name} {{ " + " ; ".join(eqs) + " }")
    asserted = [f"{a} >= {b}" for a, b in
                (rng.sample(names, 2) for _ in range(n_asserted))]
    return "\n".join(lines) + "\n", "\n".join(asserted) + "\n", names


def lattice_case(rng: random.Random, halves: Sequence[Tuple[str, int, int]]
                 ) -> Dict[str, object]:
    """One cyclic schema and, per (label, facts, bound), a spec over it."""
    name, schema_text, arrows = cyclic_schema(rng)
    specs = []
    for label, n_facts, bound in halves:
        words = sum(len(ws) for ws in _parallel_words(arrows, bound).values())
        if words + 2 != 2 * (2 ** (bound + 1) - 1):
            raise GeneratorError("the path universe does not have its fixed size")
        spec_text, asserted_text, names = specification(rng, arrows, n_facts, 3)
        specs.append({"label": label, "spec": spec_text, "asserted": asserted_text,
                      "max_len": bound, "facts": n_facts})
    return {"name": name, "schema": schema_text, "specs": specs}


# -- set pushouts ----------------------------------------------------------------


def components(x: Sequence[str], y: Sequence[str], z: Sequence[str],
               f: Dict[str, str], g: Dict[str, str]) -> Dict[Tuple[str, str], int]:
    """Component number of each tagged element of X + Z + Y, by BFS."""
    adj: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    for tag, elems in (("x", x), ("y", y), ("z", z)):
        for e in elems:
            adj[(tag, e)] = []
    for e in z:
        for other in (("x", f[e]), ("y", g[e])):
            adj[("z", e)].append(other)
            adj[other].append(("z", e))
    label: Dict[Tuple[str, str], int] = {}
    n = 0
    for start in adj:
        if start in label:
            continue
        label[start] = n
        queue = deque([start])
        while queue:
            for nxt in adj[queue.popleft()]:
                if nxt not in label:
                    label[nxt] = n
                    queue.append(nxt)
        n += 1
    return label


def glue_case(rng: random.Random, n_xy: int, n_z: int) -> Dict[str, object]:
    """Carriers X, Y, Z with random legs, and a cocone built from the BFS.

    The cocone sends every element to its component's name, so the
    pushout's mediator into it exists and the pushout has exactly
    ``classes`` classes.
    """
    tag = _token(rng)
    x = [f"x{k}.{tag}" for k in range(n_xy)]
    y = [f"y{k}.{tag}" for k in range(n_xy)]
    z = [f"z{k}.{tag}" for k in range(n_z)]
    f = {e: rng.choice(x) for e in z}
    g = {e: rng.choice(y) for e in z}
    label = components(x, y, z, f, g)
    classes = len(set(label.values()))
    if any(label[("z", e)] != label[("x", f[e])] or label[("z", e)] != label[("y", g[e])]
           for e in z):
        raise GeneratorError("a leg crosses two components")
    cocone = {
        "set": [f"c{k}" for k in range(classes)],
        "j2": {e: f"c{label[('x', e)]}" for e in x},
        "j1": {e: f"c{label[('y', e)]}" for e in y},
    }
    text = json.dumps({"x": x, "y": y, "z": z, "f": f, "g": g, "cocone": cocone})
    return {"text": text, "elements": 2 * n_xy + n_z, "classes": classes}

