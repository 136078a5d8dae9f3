"""Correctness of one invocation against the reference recorded for its input.

``reference/<workload>.json`` maps each master seed to the exit code and the
``report.json`` that the program produced when the benchmark was defined
(recorded by ``record.py``).  The ``config`` and ``report`` sections must
match: strings, booleans, integers and nulls exactly, floats within
``REL_TOL``.  That admits a declared change of BLAS reduction order (relative
changes near 1e-15) but not a wrong result.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
COMPARED = ("config", "report")


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, master_seed: int) -> dict:
    table = json.loads(reference_path(workload).read_text())
    return table[str(master_seed)]


def mismatches(actual, expected, where: str = "") -> list[str]:
    """Differences between two decoded JSON values, as readable paths."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in mismatches(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and type(actual) in (float, int):
        if math.isclose(actual, expected, rel_tol=REL_TOL):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def check_report(report_bytes: bytes | None, expected: dict) -> list[str]:
    """Mismatches between a report file and the recorded reference report."""
    if report_bytes is None:
        return ["report.json missing"]
    try:
        actual = json.loads(report_bytes)
    except ValueError as exc:
        return [f"report.json unreadable: {exc}"]
    if not isinstance(actual, dict):
        return ["report.json is not an object"]
    return [m for key in COMPARED
            for m in mismatches(actual.get(key), expected["report"][key], key)]
