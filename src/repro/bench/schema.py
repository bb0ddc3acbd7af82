"""Schema for ``BENCH_core.json``, mirroring :mod:`repro.obs.schema`.

Hand-rolled validation (no jsonschema dependency): :func:`validate_report`
raises :class:`BenchSchemaError` describing the first violation, so the
CLI self-checks every document before writing it and CI can validate the
committed baseline.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.suite.layers import SIM_LAYERS

#: bump when the meaning of any report field changes
BENCH_SCHEMA_VERSION = 1

#: required fields of the top-level document
_TOP_FIELDS: Dict[str, type] = {
    "schema": int,
    "python": str,
    "platform": str,
    "quick": bool,
    "benchmarks": list,
}

#: required fields of each benchmark row
_ROW_FIELDS: Dict[str, type] = {
    "name": str,
    "kind": str,
    "work_units": int,
    "wall_seconds": (int, float),
    "units_per_second": (int, float),
    "peak_rss_kb": int,
}

_KINDS = ("micro", "e2e")


class BenchSchemaError(ValueError):
    """A ``BENCH_core.json`` document violates the schema."""


def _check_fields(obj: dict, spec: Dict[str, type], where: str) -> None:
    for key, expected in spec.items():
        if key not in obj:
            raise BenchSchemaError(f"{where}: missing required field {key!r}")
        value = obj[key]
        # bool is an int subclass; reject it where an int is required
        if expected is int and isinstance(value, bool):
            raise BenchSchemaError(f"{where}: field {key!r} must be an int, got bool")
        if not isinstance(value, expected):
            raise BenchSchemaError(
                f"{where}: field {key!r} must be {expected}, "
                f"got {type(value).__name__}"
            )


def _is_sha256(value: object) -> bool:
    return isinstance(value, str) and len(value) == 64


def _check_layers(row: dict, where: str) -> None:
    """``events_by_layer`` maps known simulator layers to integer counts
    that sum to the row's ``events_by_callback``, when it has one."""
    counts = row["events_by_layer"]
    if not isinstance(counts, dict) or not all(
        key in SIM_LAYERS and isinstance(count, int) and not isinstance(count, bool)
        for key, count in counts.items()
    ):
        raise BenchSchemaError(
            f"{where}: events_by_layer must map simulator layers {SIM_LAYERS} "
            "to integer counts"
        )
    by_callback = row.get("events_by_callback")
    if isinstance(by_callback, dict) and sum(counts.values()) != sum(by_callback.values()):
        raise BenchSchemaError(
            f"{where}: events_by_layer sums to {sum(counts.values())}, "
            f"events_by_callback to {sum(by_callback.values())}"
        )


def validate_report(doc: object) -> None:
    """Raise :class:`BenchSchemaError` unless ``doc`` is a valid report."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"report must be an object, got {type(doc).__name__}")
    _check_fields(doc, _TOP_FIELDS, "report")
    if doc["schema"] != BENCH_SCHEMA_VERSION:
        raise BenchSchemaError(
            f"unsupported schema {doc['schema']!r} (expected {BENCH_SCHEMA_VERSION})"
        )
    rows: List[object] = doc["benchmarks"]
    if not rows:
        raise BenchSchemaError("report: benchmarks list is empty")
    seen = set()
    for idx, row in enumerate(rows):
        where = f"benchmarks[{idx}]"
        if not isinstance(row, dict):
            raise BenchSchemaError(f"{where}: must be an object")
        _check_fields(row, _ROW_FIELDS, where)
        if row["kind"] not in _KINDS:
            raise BenchSchemaError(
                f"{where}: kind must be one of {_KINDS}, got {row['kind']!r}"
            )
        if row["name"] in seen:
            raise BenchSchemaError(f"{where}: duplicate benchmark name {row['name']!r}")
        seen.add(row["name"])
        if row["wall_seconds"] < 0:
            raise BenchSchemaError(f"{where}: wall_seconds must be non-negative")
        if row["work_units"] < 0:
            raise BenchSchemaError(f"{where}: work_units must be non-negative")
        if row["kind"] == "e2e" and "results_digest" in row:
            if not _is_sha256(row["results_digest"]):
                raise BenchSchemaError(
                    f"{where}: results_digest must be a sha256 hex string"
                )
        if "events_by_callback" in row:
            counts = row["events_by_callback"]
            if not isinstance(counts, dict) or not all(
                isinstance(key, str)
                and isinstance(count, int)
                and not isinstance(count, bool)
                for key, count in counts.items()
            ):
                raise BenchSchemaError(
                    f"{where}: events_by_callback must map callback keys "
                    "to integer counts"
                )
        if "events_by_layer" in row:
            _check_layers(row, where)
        if "dispatch_order" in row and not _is_sha256(row["dispatch_order"]):
            raise BenchSchemaError(
                f"{where}: dispatch_order must be a sha256 hex string"
            )
        if "fail_threshold" in row:
            threshold = row["fail_threshold"]
            if (
                isinstance(threshold, bool)
                or not isinstance(threshold, (int, float))
                or threshold < 1.0
            ):
                raise BenchSchemaError(
                    f"{where}: fail_threshold must be a number >= 1.0"
                )
