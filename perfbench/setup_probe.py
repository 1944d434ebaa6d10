"""The program's set-up: import ologdb and parse the fixed fixture files.

``load`` is what every workload runs before its first op.  Run as a script
in a fresh interpreter, it times that set-up and prints the seconds::

    PYTHONPATH=src python3 perfbench/setup_probe.py src/ologdb/fixtures/A.olog

The clock starts before ``import ologdb``, so a slower import shows, and
stops after the last translation is parsed.  Interpreter start-up is not
counted.  The second number printed is the reference kernel's time right
after (median of three), which scales the first to reference speed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple


def load(files: Sequence[Path]) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Parse the schemas (``.olog``), then the translations between them."""
    import json

    from ologdb import parse_schema, translation_from_json

    schemas = {f.stem: parse_schema(f.read_text("utf-8"), f.stem)
               for f in files if f.suffix == ".olog"}
    translations = {}
    for f in files:
        if f.suffix == ".json":
            text = f.read_text("utf-8")
            data = json.loads(text)
            translations[f.stem] = translation_from_json(
                text, schemas[data["source"]], schemas[data["target"]])
    return schemas, translations


if __name__ == "__main__":
    start = time.perf_counter()
    load([Path(arg) for arg in sys.argv[1:]])
    elapsed = time.perf_counter() - start
    import statistics

    import reference

    print(elapsed, statistics.median(reference.seconds() for _ in range(3)))
