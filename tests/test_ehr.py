"""Cohort CSV parsing and one-hot expansion."""

import numpy as np
import pytest

from oncokit.ehr import Cohort, load_ehr, save_ehr
from oncokit.errors import DataError


def _write(tmp_path, text, name="cohort.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_two_rows_one_numeric_feature(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,10,1,c1,61\nb,12,0,c2,55\n")
    cohort = load_ehr(p)
    assert len(cohort) == 2
    assert cohort.feature_names == ["age"]
    assert cohort.subjects[0].covariates[0] == 61.0
    assert cohort.subjects[1].event == 0


def test_categorical_three_levels(tmp_path):
    p = _write(tmp_path, "id,time,event,center,stage\n"
                         "a,1,1,c,II\nb,2,0,c,I\nc,3,1,c,III\nd,4,1,c,I\n")
    cohort = load_ehr(p)
    assert cohort.feature_names == ["stage=I", "stage=II", "stage=III"]
    assert np.array_equal(cohort.subjects[0].covariates, [0.0, 1.0, 0.0])
    assert np.array_equal(cohort.subjects[3].covariates, [1.0, 0.0, 0.0])


def test_bad_event_names_row(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,1,1,c,5\nb,2,2,c,6\n")
    with pytest.raises(DataError) as e:
        load_ehr(p)
    assert ":3" in str(e.value)


def test_non_numeric_time_names_row(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,soon,1,c,5\n")
    with pytest.raises(DataError) as e:
        load_ehr(p)
    assert ":2" in str(e.value)


def test_missing_column(tmp_path):
    p = _write(tmp_path, "id,time,center,age\na,1,c,5\n")
    with pytest.raises(DataError) as e:
        load_ehr(p)
    assert "event" in str(e.value)


def test_nonpositive_time_rejected(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,0,1,c,5\n")
    with pytest.raises(DataError):
        load_ehr(p)


def test_duplicate_ids_rejected(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,1,1,c,5\na,2,0,c,6\n")
    with pytest.raises(DataError):
        load_ehr(p)


def test_save_ehr_roundtrip(tmp_path):
    cohort = Cohort(["a", "b"], [3.25, 7.5], [1, 0], [[1.5, 0.0], [-0.5, 1.0]],
                    ["x0", "x1"], centers=["c0", "c1"])
    p = tmp_path / "out.csv"
    save_ehr(cohort, p)
    back = load_ehr(p)
    assert [s.id for s in back.subjects] == ["a", "b"]
    assert np.allclose(back.covariate_matrix(), cohort.covariate_matrix())
    assert back.subjects[0].time == 3.25


def test_duplicate_feature_name_rejected(tmp_path):
    p = _write(tmp_path, "id,time,event,center,x,x\na,1,1,c,1,2\nb,2,0,c,3,4\n")
    with pytest.raises(DataError, match="duplicate column 'x'"):
        load_ehr(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_feature_names_row(tmp_path, value):
    p = _write(tmp_path, f"id,time,event,center,age,dose\na,1,1,c,5,1\nb,2,0,c,6,{value}\n")
    with pytest.raises(DataError) as e:
        load_ehr(p)
    assert f"{p}:3" in str(e.value) and "'dose'" in str(e.value)


def test_byte_order_mark_accepted(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfid,time,event,center,age\r\na,10,1,c1,61\r\nb,12,0,c2,55\r\n")
    cohort = load_ehr(p)
    assert list(cohort.ids) == ["a", "b"]
    assert cohort.covariate_matrix().tolist() == [[61.0], [55.0]]


def test_duplicate_id_names_row(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,1,1,c,5\n\nb,2,0,c,6\na,2,0,c,6\n")
    with pytest.raises(DataError, match=r":5: duplicate id 'a'"):
        load_ehr(p)


def test_bad_row_names_physical_line(tmp_path):
    # row s1's quoted note spans lines 2 and 3, so the bad time is on line 5
    p = _write(tmp_path, 'id,time,event,center,note\ns1,1,1,c,"two\nlines"\n'
                         's2,2,0,c,x\ns3,abc,1,c,y\n')
    with pytest.raises(DataError, match=r"\.csv:5: non-numeric time 'abc'"):
        load_ehr(p)


def test_cohort_columns_are_read_only(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,10,1,c1,61\nb,12,0,c2,55\n")
    cohort = load_ehr(p)
    sub = cohort.subset([1])
    assert sub.ids.tolist() == ["b"] and sub.covariate_matrix().tolist() == [[55.0]]
    for column in (cohort.covariate_matrix(), cohort.times(), cohort.events(),
                   cohort.subjects[0].covariates):
        with pytest.raises(ValueError):
            column[0] = 0


def test_absent_columns_are_blank_and_read_only(tmp_path):
    p = _write(tmp_path, "id,time,event,center,age\na,10,1,c1,61\nb,12,0,c2,55\n")
    cohort = load_ehr(p)
    for c in (cohort, cohort.subset([1, 0]), cohort.subset([1])):
        for column in (c.ct_paths, c.pet_paths, c.mask_paths):
            assert column.dtype == object and column.tolist() == [None] * len(c)
            with pytest.raises(ValueError):
                column[0] = "x.mvol"
    bare = Cohort(["a", "b"], [1.0, 2.0], [1, 0], np.zeros((2, 0)), [])
    assert bare.centers.dtype == object and bare.centers.tolist() == ["", ""]
    assert not bare.centers.flags.writeable


def test_ragged_row_named_before_an_earlier_bad_value(tmp_path):
    # every row's width is checked before any value is
    p = _write(tmp_path, "id,time,event,center,age\na,soon,1,c,5\nb,2,0,c\n")
    with pytest.raises(DataError, match=r"\.csv:3: expected 5 fields, got 4"):
        load_ehr(p)
