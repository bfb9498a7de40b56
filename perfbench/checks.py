"""Output checks for one scenario run.

A run passes when the CLI exits 0, prints its own bound line with the
measured value under the expected bound, and writes every expected CSV with
finite values.  The CSVs must then match a baseline:

* seed 0: the reference set recorded at the seed commit (``reference/``).
  Byte-identical while the numerics are unchanged; otherwise every value
  within ``|got - ref| <= ATOL + RTOL * |ref|``, the oracle-agreement
  tolerance (1e-6) that the repository's tests use for "same results".
* every seed: the first run of the same invocation, byte for byte, because
  identical configs must give byte-identical files.
"""

from __future__ import annotations

import gzip
import math
import re
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_BOUND_LINE = re.compile(r"^max (?P<label>.+?): (?P<value>\S+) \(bound (?P<bound>\S+)\)$", re.M)


def check_bound_line(stdout: str, label: str, bound: float) -> str | None:
    for match in _BOUND_LINE.finditer(stdout):
        if match["label"] != label:
            continue
        value, printed = float(match["value"]), float(match["bound"])
        if not math.isclose(printed, bound):
            return f"bound line reports bound {printed:g}, expected {bound:g}"
        if not value < bound:
            return f"max {label} = {value:.3e} is not below {bound:g}"
        return None
    return f"no 'max {label}: ... (bound ...)' line in the output"


def _parse(data: bytes) -> tuple[str, np.ndarray]:
    header, *rows = data.decode().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows], dtype=float)


def compare(name: str, got: bytes, want: bytes, exact: bool) -> str | None:
    if got == want:
        return None
    if exact:
        return f"{name} differs from the first run of this seed"
    got_header, a = _parse(got)
    want_header, b = _parse(want)
    if got_header != want_header:
        return f"{name}: header {got_header!r} differs from the reference {want_header!r}"
    if a.shape != b.shape:
        return f"{name}: shape {a.shape} differs from the reference {b.shape}"
    excess = np.abs(a - b) - (ATOL + RTOL * np.abs(b))
    if np.any(excess > 0):
        row, col = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return (
            f"{name}: row {row} column {col} is {float(a[row, col])!r}, "
            f"reference {float(b[row, col])!r} (tolerance {ATOL:g} + {RTOL:g}*|ref|)"
        )
    return None


def reference_files(workload: str) -> dict[str, bytes]:
    folder = REFERENCE_DIR / workload
    return {
        path.name[: -len(".gz")]: gzip.decompress(path.read_bytes())
        for path in sorted(folder.glob("*.csv.gz"))
    }


def check_run(prepared, code, stdout: str, out_dir: Path, reference, first) -> list[str]:
    """Problems found in one run; an empty list means the run passed.

    ``reference`` (seed 0 only) and ``first`` (the first run of this
    invocation, None for that run itself) map file names to CSV bytes.
    """
    workload = prepared.workload
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    bound_problem = check_bound_line(stdout, workload.bound_label, workload.bound)
    if bound_problem:
        problems.append(bound_problem)
    expected = prepared.expected_files()
    written = {p.name for p in out_dir.glob("*.csv")}
    if written != set(expected):
        problems.append(f"CSV files {sorted(written)} differ from expected {sorted(expected)}")
        return problems
    for name, rows in expected.items():
        data = (out_dir / name).read_bytes()
        _, values = _parse(data)
        if values.shape[0] != rows or not np.all(np.isfinite(values)):
            problems.append(f"{name}: {values.shape[0]} rows (expected {rows}) or non-finite")
            continue
        for baseline, exact in ((reference, False), (first, True)):
            if baseline is None:
                continue
            if name not in baseline:
                problems.append(f"{name}: no baseline file to compare with")
                continue
            problem = compare(name, data, baseline[name], exact)
            if problem:
                problems.append(problem)
    return problems
