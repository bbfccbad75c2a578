"""``ehr.read_rows``: plain files are split as text, and every file gives
the same cohort, labels or predictions, or the same error, as
``csv.reader``."""

import builtins
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from oncokit import ehr
from oncokit.cli import main
from oncokit.ehr import load_ehr, load_labels, load_predictions
from oncokit.errors import DataError
from oncokit.experiment import evaluate_survival_files

HEADER = "id,time,event,center,age"
LIMIT = csv.field_size_limit()


def _rows(*rows, eol="\n", end=True):
    return (eol.join(rows) + (eol if end else "")).encode()


# (name, file bytes, whether the file is plain, so split as text)
COHORT_FILES = [
    ("lf", _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6"), True),
    ("crlf", _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6", eol="\r\n"), True),
    ("bom-lf", b"\xef\xbb\xbf" + _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6"), True),
    ("bom-crlf", b"\xef\xbb\xbf" + _rows(HEADER, "a,1,1,c,5", eol="\r\n"), True),
    ("no-eol-lf", _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6", end=False), True),
    ("no-eol-crlf", _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6", eol="\r\n", end=False), True),
    ("header-only", _rows(HEADER), True),
    ("header-only-no-eol", _rows(HEADER, end=False), True),
    ("header-only-crlf", _rows(HEADER, eol="\r\n"), True),
    ("empty", b"", False),
    ("bom-only", b"\xef\xbb\xbf", False),
    ("newline-only", b"\n", False),
    ("blank-header-line", _rows("", HEADER, "a,1,1,c,5"), False),
    ("blank-line", _rows(HEADER, "a,1,1,c,5", "", "b,2,0,c,6"), False),
    ("blank-lines-at-end", _rows(HEADER, "a,1,1,c,5", "", ""), False),
    ("whitespace-line", _rows(HEADER, "a,1,1,c,5", "   ", "b,2,0,c,6"), False),
    ("bare-commas", _rows(HEADER, "a,1,1,c,5", ",,,,", "b,2,0,c,6"), False),
    ("spaced-commas", _rows(HEADER, "a,1,1,c,5", " , ,\t, , ", "b,2,0,c,6"), False),
    ("blank-first-field", _rows(HEADER, ",1,1,c,5", "b,2,0,c,6"), False),
    ("space-first-field", _rows(HEADER, " ,1,1,c,5", "b,2,0,c,6"), False),
    ("quoted-comma", _rows(HEADER, 'a,1,1,"c,d",5', "b,2,0,c,6"), False),
    ("quoted-lf", _rows(HEADER, 'a,1,1,"c\nd",5', "b,2,0,c,6"), False),
    ("quoted-crlf", _rows(HEADER, 'a,1,1,"c\r\nd",5', "b,2,0,c,6", eol="\r\n"), False),
    ("quoted-plain", _rows(HEADER, 'a,1,1,"c",5', "b,2,0,c,6"), False),
    ("quoted-escaped", _rows(HEADER, 'a,1,1,"c""d",5', "b,2,0,c,6"), False),
    ("quote-inside", _rows(HEADER, 'a,1,1,c"d,5', "b,2,0,c,6"), False),
    ("lone-cr-ends", _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6", eol="\r"), False),
    ("lone-cr-field", _rows(HEADER, "a,1,1,c\rd,5", "b,2,0,c,6"), False),
    ("mixed-ends", _rows(HEADER, "a,1,1,c,5", eol="\r\n") + _rows("b,2,0,c,6"), False),
    ("nul", _rows(HEADER, "a,1,1,c\0d,5", "b,2,0,c,6"), False),
    ("other-line-breaks", _rows(HEADER, "a,1,1,c\x85d e\x0bf,5", "b,2,0,c,6"), True),
    ("short-row", _rows(HEADER, "a,1,1,c,5", "b,2,0,c"), False),
    ("long-row", _rows(HEADER, "a,1,1,c,5", "b,2,0,c,6,7"), False),
    ("short-then-long", _rows(HEADER, "a,1,1,c", "b,2,0,c,6,7"), False),
    ("long-then-short", _rows(HEADER, "a,1,1,c,5,9", "b,2,0,c", "d,3,1,c,4"), False),
    ("one-column", _rows("id", "a", "b"), True),
    ("duplicate-id", _rows(HEADER, "a,1,1,c,5", "a,2,0,c,6"), True),
    ("bad-event", _rows(HEADER, "a,1,1,c,5", "b,2,2,c,6"), True),
    ("bad-time", _rows(HEADER, "a,1,1,c,5", "b,soon,0,c,6"), True),
    ("zero-time", _rows(HEADER, "a,0,1,c,5", "b,2,0,c,6"), True),
    ("categorical", _rows(HEADER + ",stage", "a,1,1,c,5,II", "b,2,0,d,6, I", "e,3,1,c,7,I"),
     True),
    ("spaced-header", _rows(" id , time,event ,center,age ", "a,1,1,c,5"), True),
    ("duplicate-column", _rows(HEADER + ",age", "a,1,1,c,5,6"), True),
    ("missing-column", _rows("id,time,center,age", "a,1,c,5"), True),
    ("field-at-limit", _rows(HEADER, f"a,1,1,{'c' * LIMIT},5"), False),
    ("field-over-limit", _rows(HEADER, f"a,1,1,{'c' * (LIMIT + 1)},5"), False),
    ("latin-1", _rows(HEADER, "a,1,1,caf\xe9,5").replace(b"\xc3\xa9", b"\xe9"), False),
    *((f"number {text!r}", _rows(HEADER, f"a,1,1,c,{text}", "b,2,0,c,6"), True)
      for text in ("5e-324", "1.8e308", "-0.0", " 3.5", "1_000", "nan", "inf", "-inf",
                   "0x1p3", "1e999")),
    *((f"time {text!r}", _rows(HEADER, f"a,{text},1,c,5", "b,2,0,c,6"), True)
      for text in ("5e-324", " 3.5", "1_000", "1.8e308", "inf", "nan")),
]

PRED_FILES = [
    ("lf", _rows("id,risk", "a,0.1", "b,-0.0"), True),
    ("crlf", _rows("id,risk", "a,0.1", "b,5e-324", eol="\r\n"), True),
    ("bom", b"\xef\xbb\xbf" + _rows("id,risk", "a,0.1", "b,0.2", eol="\r\n"), True),
    ("no-eol", _rows("id,risk", "a,0.1", "b,0.2", end=False), True),
    ("header-only", _rows("id,risk"), True),
    ("empty", b"", False),
    ("no-risk-column", _rows("id,score", "a,0.1"), True),
    ("reversed", _rows("risk,id", "0.1,a", "0.2,b"), True),
    ("extra-column", _rows("id,risk,note", "a,0.1,x", "b,0.2,y"), True),
    ("repeated-column", _rows("id,risk,risk", "a,0.1,0.3", "b,0.2,0.4"), True),
    ("blank-lines", _rows("id,risk", "a,0.1", "", " , ", "b,0.2"), False),
    ("long-rows", _rows("id,risk", "a,0.1,extra", "b,0.2"), False),
    ("short-row", _rows("id,risk", "a,0.1", "b"), False),
    ("duplicate-id", _rows("id,risk", "a,0.1", "a,0.2"), True),
    ("spaced-id", _rows("id,risk", " a,0.1", "a ,0.2"), True),
    ("quoted-id", _rows("id,risk", '"a,b",0.1', "c,0.2"), False),
    ("quoted-plain-id", _rows("id,risk", '"a",0.1', "c,0.2"), False),
    ("nul", _rows("id,risk", "a\0,0.1", "c,0.2"), False),
    ("latin-1", _rows("id,risk", "\xe9,0.1").replace(b"\xc3\xa9", b"\xe9"), False),
    *((f"risk {text!r}", _rows("id,risk", f"a,{text}", "b,0.2"), True)
      for text in ("5e-324", "1.8e308", "-0.0", " 3.5", "1_000", "nan", "inf", "high", "")),
]


def _cohort_outcome(path):
    try:
        c = load_ehr(path)
    except DataError as exc:
        return "error", str(exc)
    return ("cohort", c.ids.tolist(), c.centers.tolist(), c.feature_names,
            c.times().dtype, c.times().tobytes(), c.events().dtype, c.events().tobytes(),
            c.covariate_matrix().shape, c.covariate_matrix().tobytes())


def _labels_outcome(path):
    try:
        ids, times, events = load_labels(path)
    except DataError as exc:
        return "error", str(exc)
    return "labels", ids, times.dtype, times.tobytes(), events.dtype, events.tobytes()


def _pred_outcome(path):
    try:
        ids, risks = load_predictions(path)
    except DataError as exc:
        return "error", str(exc)
    return "predictions", ids, risks.dtype, risks.tobytes()


def _both_paths(monkeypatch, read, path):
    """``read(path)`` as the reader gives it, then with every file sent to
    ``csv.reader``."""
    split = read(path)
    with monkeypatch.context() as m:
        m.setattr(ehr, "_split_plain", lambda text: None)
        walked = read(path)
    return split, walked


def _is_plain(data):
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return False
    return ehr._split_plain(text) is not None


@pytest.mark.parametrize("name, data, plain", COHORT_FILES, ids=[c[0] for c in COHORT_FILES])
def test_cohort_split_matches_walker(tmp_path, monkeypatch, name, data, plain):
    path = tmp_path / "ehr.csv"
    path.write_bytes(data)
    assert _is_plain(data) == plain
    split, walked = _both_paths(monkeypatch, _cohort_outcome, path)
    assert split == walked


@pytest.mark.parametrize("name, data, plain", PRED_FILES, ids=[c[0] for c in PRED_FILES])
def test_predictions_split_matches_walker(tmp_path, monkeypatch, name, data, plain):
    path = tmp_path / "risks.csv"
    path.write_bytes(data)
    assert _is_plain(data) == plain
    split, walked = _both_paths(monkeypatch, _pred_outcome, path)
    assert split == walked


# the files whose only fault is a feature value, load_labels reads them;
# 1.8e308 is past the largest double, so it reads as inf
FEATURE_VALUE_ONLY = {f"number {text!r}" for text in ("nan", "inf", "-inf", "1e999", "1.8e308")}


@pytest.mark.parametrize("name, data, plain", COHORT_FILES, ids=[c[0] for c in COHORT_FILES])
def test_labels_match_cohort(tmp_path, monkeypatch, name, data, plain):
    path = tmp_path / "ehr.csv"
    path.write_bytes(data)
    labels = _both_paths(monkeypatch, _labels_outcome, path)
    cohorts = _both_paths(monkeypatch, _cohort_outcome, path)
    for got, cohort in zip(labels, cohorts):
        feature_only = cohort[0] == "error" and ": feature 'age' must be finite" in cohort[1]
        assert feature_only == (name in FEATURE_VALUE_ONLY)
        if cohort[0] == "cohort":
            assert got == ("labels", cohort[1], *cohort[4:8])
        elif feature_only:
            times, events = np.array([1.0, 2.0]), np.array([1, 0])
            assert got == ("labels", ["a", "b"], times.dtype, times.tobytes(),
                           events.dtype, events.tobytes())
        else:
            assert got == cohort


def test_grid_errors_name_the_line(tmp_path):
    # a few of the grid's errors, spelled out: both paths give these
    cases = {"short-row": ":3: expected 5 fields, got 4", "bare-commas": None,
             "duplicate-id": ":3: duplicate id 'a'", "bad-event": ":3: event must be 0 or 1",
             "number 'nan'": ":2: feature 'age' must be finite",
             "field-over-limit": ":2: field larger than field limit",
             "latin-1": ": not UTF-8 text, byte 34: invalid continuation byte"}
    files = {name: data for name, data, _ in COHORT_FILES}
    for name, message in cases.items():
        path = tmp_path / "ehr.csv"
        path.write_bytes(files[name])
        outcome = _cohort_outcome(path)
        if message is None:
            assert outcome[:2] == ("cohort", ["a", "b"])
        else:
            assert outcome[0] == "error" and outcome[1].startswith(f"{path}{message}"), name


@pytest.mark.parametrize("read, data, named", [
    (load_ehr, _rows(HEADER, "a,1,1,c,5", "b,soon,0,c,6"), ":3: non-numeric time 'soon'"),
    (load_ehr, _rows(HEADER, 'a,1,1,"c,d",5', "", "b,2,0,c,nan"),
     ":4: feature 'age' must be finite"),
    (load_predictions, _rows("id,risk", "a,0.1", "b,high"), ":3: risk must be a finite number"),
    (load_predictions, _rows("id,risk", '"a",0.1', "", "a,0.2"), ":4: duplicate id 'a'"),
], ids=["cohort-plain", "cohort-quoted", "risks-plain", "risks-quoted"])
def test_bad_row_is_named_from_the_one_read(tmp_path, monkeypatch, read, data, named):
    # the row's line comes from the columns already read: a second open fails
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    opens = []

    def once(real):
        def guarded(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                opens.append(file)
                if len(opens) > 1:
                    raise PermissionError(f"{path} opened again")
            return real(file, *args, **kwargs)
        return guarded

    monkeypatch.setattr(builtins, "open", once(builtins.open))
    monkeypatch.setattr(Path, "open", once(Path.open))
    with pytest.raises(DataError) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}{named}")
    assert len(opens) == 1


def test_decode_error_offset_counts_the_byte_order_mark(tmp_path):
    path = tmp_path / "ehr.csv"
    path.write_bytes(b"\xef\xbb\xbfid,time,event,center\na,1,1,\xff\n")
    with pytest.raises(DataError, match=r"byte 30: invalid start byte"):
        load_ehr(path)


def test_written_files_take_the_split_path(tmp_path, monkeypatch):
    # save_ehr and oncokit predict write CRLF files that need no csv.reader
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "40", "--seed", "5",
                 "--beta", "1.5,-0.5"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "surv-cox", "data_dir": str(data),
                               "output_dir": str(tmp_path / "out"), "seed": 2,
                               "cv_folds": 2}))
    assert main(["train", "--config", str(cfg)]) == 0
    risks = tmp_path / "risks.csv"
    assert main(["predict", "--model", str(tmp_path / "out" / "fold_0_cox.json"),
                 "--ehr", str(data / "ehr.csv"), "--out", str(risks)]) == 0
    assert b"\r\n" in risks.read_bytes() and b"\r\n" in (data / "ehr.csv").read_bytes()
    expected = evaluate_survival_files(risks, data / "ehr.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    monkeypatch.setattr(csv, "reader", refuse)
    assert len(load_ehr(data / "ehr.csv")) == 40
    assert evaluate_survival_files(risks, data / "ehr.csv") == expected
