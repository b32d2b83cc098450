"""CSV ingestion into fixed-point datasets.

Columns are boolean (values in {0,1}), numeric (decimal, fx-encoded), or
categorical (integer-coded by first appearance, then fx-encoded).  Row
order is file order; uids come from a ``uid`` column or default to the row
index.  The label column is recognized by name (y / label / target /
class, case-insensitive) unless declared explicitly.  A file with two
uid-named or, when the label is not declared, two label-named columns is
refused.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .field import ScaleConfig, fx_encode
from .hashing import DataPoint
from .training import Dataset

LABEL_NAMES = ("y", "label", "target", "class")
COLUMN_KINDS = ("bool", "num", "cat")


class SchemaError(ValueError):
    pass


class NonNumericCell(ValueError):
    pass


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    kind: str  # bool | num | cat
    categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class IngestedDataset:
    dataset: Dataset
    columns: tuple[ColumnInfo, ...]
    label_column: str
    uid_column: Optional[str]


def _is_number(cell: str) -> bool:
    try:
        Fraction(cell)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _infer_kind(values: list[str]) -> str:
    stripped = [v.strip() for v in values]
    if all(v in ("0", "1") for v in stripped):
        return "bool"
    if all(_is_number(v) for v in stripped):
        return "num"
    return "cat"


def _named_column(header: list[str], names: tuple[str, ...], role: str) -> Optional[str]:
    """The one column whose name is among ``names``, case-insensitive, or
    None.  A second such column would silently become a feature, so it
    raises SchemaError."""
    found = [n for n in header if n.lower() in names]
    if len(found) > 1:
        raise SchemaError(f"{len(found)} {role} columns: {', '.join(map(repr, found))}")
    return found[0] if found else None


def ingest_csv(
    path: str | Path,
    scale: ScaleConfig,
    schema: Optional[dict[str, str]] = None,
    label_column: Optional[str] = None,
) -> IngestedDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise SchemaError("CSV needs a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    duplicate = next((n for i, n in enumerate(header) if n in header[:i]), None)
    if duplicate is not None:
        raise SchemaError(f"duplicate column {duplicate!r}")
    data = rows[1:]
    if any(len(r) != len(header) for r in data):
        raise SchemaError("ragged CSV: row length differs from header")

    if label_column is None:
        label_column = _named_column(header, LABEL_NAMES, "label")
    if label_column is None or label_column not in header:
        raise SchemaError(
            f"missing label column (expected one of {', '.join(LABEL_NAMES)})"
        )
    uid_column = _named_column(header, ("uid",), "uid")

    feature_names = [n for n in header if n != label_column and n != uid_column]
    col_values = {n: [r[header.index(n)] for r in data] for n in header}

    columns = []
    encoded_features: dict[str, list[int]] = {}
    for name in feature_names:
        values = col_values[name]
        kind = (schema or {}).get(name) or _infer_kind(values)
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r} for {name!r}")
        if kind in ("bool", "num"):
            bad = next((v for v in values if not _is_number(v.strip())), None)
            if bad is not None:
                raise NonNumericCell(f"column {name!r}: cell {bad!r} is not numeric")
            encoded_features[name] = [fx_encode(v.strip(), scale) for v in values]
            columns.append(ColumnInfo(name, kind))
        else:
            codes: dict[str, int] = {}
            ints = []
            for v in values:
                v = v.strip()
                codes.setdefault(v, len(codes))
                ints.append(codes[v])
            encoded_features[name] = [fx_encode(i, scale) for i in ints]
            columns.append(ColumnInfo(name, "cat", tuple(codes)))

    labels = col_values[label_column]
    bad = next((v for v in labels if not _is_number(v.strip())), None)
    if bad is not None:
        raise NonNumericCell(f"label column: cell {bad!r} is not numeric")
    encoded_labels = [fx_encode(v.strip(), scale) for v in labels]

    if uid_column is not None:
        try:
            uids = [int(v) for v in col_values[uid_column]]
        except ValueError as e:
            raise SchemaError(f"uid column must hold integers: {e}") from None
    else:
        uids = list(range(len(data)))
    if len(set(uids)) != len(uids):
        raise SchemaError("duplicate uid in CSV")

    points = tuple(
        DataPoint(
            uid=uids[i],
            x=tuple(encoded_features[n][i] for n in feature_names),
            y=encoded_labels[i],
        )
        for i in range(len(data))
    )
    return IngestedDataset(
        dataset=Dataset(points, len(feature_names)),
        columns=tuple(columns),
        label_column=label_column,
        uid_column=uid_column,
    )


def split_dataset(dataset: Dataset, ratio: float) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split: the first ratio-fraction of rows
    trains, the rest tests (row order is the file order)."""
    if not 0 < ratio < 1:
        raise ValueError("split ratio must be in (0, 1)")
    cut = max(1, min(len(dataset.points) - 1, round(len(dataset.points) * ratio)))
    return (
        Dataset(dataset.points[:cut], dataset.arity),
        Dataset(dataset.points[cut:], dataset.arity),
    )
