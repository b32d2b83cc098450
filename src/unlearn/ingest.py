"""CSV ingestion into fixed-point datasets.

Columns are numeric (decimal, fx-encoded) or categorical (integer-coded
by first appearance, then fx-encoded).  A category's code depends on the
rows of its file, so the same row can encode differently in another
file; ``categorical=False`` refuses such a column for callers that hash
points across files.  Row order is file order; uids come from a ``uid``
column or default to the row index.  The label column is recognized by
name (y / label / target / class, case-insensitive).  A file with two
uid-named or two label-named columns is refused.
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


class SchemaError(ValueError):
    pass


class NonNumericCell(ValueError):
    pass


@dataclass(frozen=True)
class IngestedDataset:
    """What ``ingest_csv`` read.  Only the dataset: perfbench's tracer
    counts the rows of ``ingest_csv(...).dataset``."""

    dataset: Dataset


def _is_number(cell: str) -> bool:
    try:
        Fraction(cell)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _named_column(header: list[str], names: tuple[str, ...], role: str) -> Optional[str]:
    """The one column whose name is among ``names``, case-insensitive, or
    None.  A second such column would silently become a feature, so it
    raises SchemaError."""
    found = [n for n in header if n.lower() in names]
    if len(found) > 1:
        raise SchemaError(f"{len(found)} {role} columns: {', '.join(map(repr, found))}")
    return found[0] if found else None


def ingest_csv(path: str | Path, scale: ScaleConfig, categorical: bool = True) -> IngestedDataset:
    # utf-8-sig drops a byte-order mark, which would otherwise hide the
    # first column's name (``uid``, say) behind it.
    with open(path, newline="", encoding="utf-8-sig") as fh:
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

    label_column = _named_column(header, LABEL_NAMES, "label")
    if label_column is None:
        raise SchemaError(
            f"missing label column (expected one of {', '.join(LABEL_NAMES)})"
        )
    uid_column = _named_column(header, ("uid",), "uid")

    feature_names = [n for n in header if n != label_column and n != uid_column]
    col_values = {n: [r[header.index(n)] for r in data] for n in header}

    encoded_features: dict[str, list[int]] = {}
    for name in feature_names:
        values = col_values[name]
        if all(_is_number(v.strip()) for v in values):
            encoded_features[name] = [fx_encode(v.strip(), scale) for v in values]
        elif not categorical:
            bad = next((v for v in values if not _is_number(v.strip())), None)
            if bad is not None and any(_is_number(v.strip()) for v in values):
                # Numeric cells beside a bad one: a numeric column with a
                # bad cell, not a categorical column.
                raise NonNumericCell(f"column {name!r}: cell {bad!r} is not numeric")
            raise SchemaError(
                f"column {name!r} is categorical: its codes depend on the file, "
                "so a point would not hash the same in another one"
            )
        else:
            codes: dict[str, int] = {}
            ints = []
            for v in values:
                v = v.strip()
                codes.setdefault(v, len(codes))
                ints.append(codes[v])
            encoded_features[name] = [fx_encode(i, scale) for i in ints]

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
    return IngestedDataset(Dataset(points, len(feature_names)))


def split_dataset(dataset: Dataset, ratio: float) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split: the first ratio-fraction of rows
    trains, the rest tests (row order is the file order).  Each side
    keeps at least one row, so fewer than two rows raise ValueError."""
    if not 0 < ratio < 1:
        raise ValueError("split ratio must be in (0, 1)")
    if len(dataset.points) < 2:
        raise ValueError(f"cannot split {len(dataset.points)} row(s) into a train and a test set")
    cut = max(1, min(len(dataset.points) - 1, round(len(dataset.points) * ratio)))
    return (
        Dataset(dataset.points[:cut], dataset.arity),
        Dataset(dataset.points[cut:], dataset.arity),
    )
