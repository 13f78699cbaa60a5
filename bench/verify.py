"""Output checks for benchmark calls.

Every call, whatever the seed, must exit 0 and print JSON that passes the
checks of its subcommand.  Under the default seed each output is also
compared with a reference recorded from the same call list: structure,
strings, booleans and integers must match exactly and floats to a relative
1e-9, which leaves room for last-ulp changes in the arithmetic.  Keys that
the reference lacks are ignored, so additive output fields do not fail.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict[str, object]:
    """Reference outputs of the default seed, keyed by `call_key`."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, outputs: dict[str, object]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical when re-recorded unchanged
    with open(reference_path(workload), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(outputs, sort_keys=True).encode("utf-8"))


def _check_semantics(command: str, data: dict) -> str | None:
    if command == "dim":
        if not (data["dim"] >= 1 and data["dim"] == data["patterns"]):
            return f"dim {data['dim']} / patterns {data['patterns']}"
        return None
    for result in data["results"]:
        q = result["q"]
        if command == "decompose":
            total = sum(block["dim"] for block in result["blocks"])
            if not result["sum_rule_ok"] or total != result["dim_product"]:
                return f"q={q}: block dims sum to {total}, " \
                       f"product dim {result['dim_product']}"
            if result["rank"] != result["dim_product"]:
                return f"q={q}: rank {result['rank']} != {result['dim_product']}"
        elif command == "reduced" and not result["pairs"]:
            return f"q={q}: no reduced pairs"
    if command == "check" and data["passed"] is not True:
        return "relations failed"
    return None


def _close(value: float, ref: float, scale: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * scale


def _compare(out, ref, path: str, siblings: dict | None = None) -> str | None:
    """First difference between `out` and `ref`, or None."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{path}: expected an object"
        if {"re", "im"} <= ref.keys() and {"re", "im"} <= out.keys():
            # a complex number: relative to its modulus, so a zero
            # imaginary part next to a real one does not need an exact 0
            z, z_ref = complex(out["re"], out["im"]), complex(ref["re"], ref["im"])
            if not abs(z - z_ref) <= REL_TOL * abs(z_ref):
                return f"{path}: {z} != {z_ref}"
        for key, value in ref.items():
            if key in ("re", "im") and {"re", "im"} <= ref.keys():
                continue
            if key not in out:
                return f"{path}.{key}: missing"
            diff = _compare(out[key], value, f"{path}.{key}", ref)
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: expected {len(ref)} items"
        for i, (a, b) in enumerate(zip(out, ref)):
            diff = _compare(a, b, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(out, bool) or not isinstance(out, (int, float)):
            return f"{path}: expected a number"
        if isinstance(ref, int) and isinstance(out, int):
            # counts are exact; a float printed without a fraction such as
            # a normalised 1 also parses as int, so int-vs-float compares
            # as floats below
            return None if out == ref else f"{path}: {out} != {ref}"
        if path.endswith("residual"):
            # round-off measurements: held to the program's own tolerance
            # unit, not to their reference digits
            scale = max(1.0, abs((siblings or {}).get("scale", 1.0)))
            ok = _close(float(out), ref, scale)
        else:
            ok = _close(float(out), ref, max(abs(ref), abs(out)))
        return None if ok else f"{path}: {out!r} != {ref!r}"
    if type(out) is not type(ref) or out != ref:
        return f"{path}: {out!r} != {ref!r}"
    return None


def check_output(argv: list[str], returncode: int, stdout: bytes,
                 reference: dict | None = None) -> str | None:
    """Why the output of the call `argv` is wrong, or None when it passes."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    try:
        problem = _check_semantics(argv[0], data)
    except (KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    if problem:
        return problem
    if reference is not None:
        key = call_key(argv)
        if key not in reference:
            return "no reference output for this call"
        return _compare(data, reference[key], "$")
    return None
