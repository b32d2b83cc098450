import pytest

from unlearn.field import ScaleConfig, fx_encode
from unlearn.hashing import DataPoint
from unlearn.ingest import NonNumericCell, SchemaError, ingest_csv, split_dataset
from unlearn.training import Dataset

CFG = ScaleConfig()


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_two_row_numeric_csv(tmp_path):
    path = write(tmp_path, "x,y\n1.0,1\n2.0,0\n")
    ingested = ingest_csv(path, CFG)
    pts = ingested.dataset.points
    assert [(d.uid, d.x, d.y) for d in pts] == [
        (0, (fx_encode(1.0, CFG),), fx_encode(1, CFG)),
        (1, (fx_encode(2.0, CFG),), fx_encode(0, CFG)),
    ]


def test_missing_label_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(SchemaError):
        ingest_csv(path, CFG)


def test_uid_column_and_boolean_features(tmp_path):
    path = write(tmp_path, "uid,f1,f2,target\n10,0,1,1\n11,1,1,0\n")
    ingested = ingest_csv(path, CFG)
    assert [d.uid for d in ingested.dataset.points] == [10, 11]
    # 0/1 features encode as any number does.
    assert ingested.dataset.points[0].x == (fx_encode(0, CFG), fx_encode(1, CFG))
    assert ingested.dataset.arity == 2


def test_corral_shaped_file(tmp_path):
    # 128 rows, 7 boolean features: the shape of the largest benchmark set.
    header = ",".join(f"b{i}" for i in range(7)) + ",class\n"
    rows = "".join(
        ",".join(str((r >> i) & 1) for i in range(7)) + f",{r % 2}\n"
        for r in range(128)
    )
    ingested = ingest_csv(write(tmp_path, header + rows), CFG)
    assert len(ingested.dataset.points) == 128
    assert ingested.dataset.arity == 7


def test_categorical_coding_first_appearance(tmp_path):
    path = write(tmp_path, "color,y\nred,1\nblue,0\nred,1\ngreen,0\n")
    ingested = ingest_csv(path, CFG)
    xs = [d.x[0] for d in ingested.dataset.points]
    assert xs == [fx_encode(i, CFG) for i in (0, 1, 0, 2)]


def test_non_numeric_cell(tmp_path):
    path = write(tmp_path, "f,y\n1.5,1\noops,0\n")
    with pytest.raises(NonNumericCell):
        ingest_csv(path, CFG, categorical=False)
    path = write(tmp_path, "f,y\n1,abc\n", name="bad_label.csv")
    with pytest.raises(NonNumericCell):
        ingest_csv(path, CFG)


def test_duplicate_uid_rejected(tmp_path):
    path = write(tmp_path, "uid,f,y\n1,0.5,1\n1,0.25,0\n")
    with pytest.raises(SchemaError):
        ingest_csv(path, CFG)


def test_duplicate_column_rejected(tmp_path):
    # Read by name, the second "f" would shadow the first: x = (0.5, 0.5).
    path = write(tmp_path, "uid,f,f,y\n1,0.5,-0.25,1\n")
    with pytest.raises(SchemaError, match="duplicate column 'f'"):
        ingest_csv(path, CFG)
    path = write(tmp_path, "uid, f,f ,y\n1,0.5,-0.25,1\n", name="padded.csv")
    with pytest.raises(SchemaError, match="duplicate column 'f'"):
        ingest_csv(path, CFG)


def test_ragged_rows_rejected(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,1\n1,0\n")
    with pytest.raises(SchemaError):
        ingest_csv(path, CFG)


def test_split_dataset(tmp_path):
    path = write(tmp_path, "f,y\n" + "".join(f"{i}.0,1\n" for i in range(10)))
    ingested = ingest_csv(path, CFG)
    train, test = split_dataset(ingested.dataset, 0.8)
    assert len(train.points) == 8 and len(test.points) == 2
    assert train.points[0].uid == 0 and test.points[-1].uid == 9
    with pytest.raises(ValueError):
        split_dataset(ingested.dataset, 1.5)


def test_split_never_empties_either_side():
    ds = Dataset(tuple(DataPoint(i, (0,), 0) for i in range(2)), 1)
    train, test = split_dataset(ds, 0.99)
    assert len(train.points) == 1 and len(test.points) == 1
