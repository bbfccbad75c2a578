"""Every output file is written whole: through a temp file and a rename."""

import os

import numpy as np
import pytest

import oncokit.errors
from oncokit.autodiff import Tensor
from oncokit.checkpoint import save_checkpoint
from oncokit.cli import main
from oncokit.cox import CoxModel, save_cox
from oncokit.ehr import Cohort, save_ehr
from oncokit.experiment import convert_si_dir
from oncokit.mtlr import MtlrModel, save_mtlr
from oncokit.volume import Volume, write_volume

COHORT = Cohort([f"s{i}" for i in range(4)], 1.0 + np.arange(4), np.arange(4) % 2,
                0.1 * np.arange(4.0)[:, None], ["x0"])


def _checkpoint(d):
    save_checkpoint({"w": Tensor(np.ones((2, 3)))}, d / "m.ckpt", config={"task": "seg3d"})
    return [d / "m.ckpt", d / "m.ckpt.json"]


def _cox(d):
    save_cox(CoxModel(np.array([0.5]), ["x0"], [(1.0, 0.2), (2.0, 0.5)]), d / "cox.json")
    return [d / "cox.json"]


def _mtlr(d):
    save_mtlr(MtlrModel(np.array([1.0, 2.0]), np.zeros((2, 1)), np.zeros(2), 1.0, ["x0"]),
              d / "mtlr.json")
    return [d / "mtlr.json"]


def _volume(d):
    write_volume(Volume(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1), "CT"), d / "v.mvol")
    return [d / "v.mvol"]


def _ehr(d):
    save_ehr(COHORT, d / "ehr.csv")
    return [d / "ehr.csv"]


def _predict_csv(d):
    _cox(d)
    _ehr(d)
    main(["predict", "--model", str(d / "cox.json"), "--ehr", str(d / "ehr.csv"),
          "--out", str(d / "risks.csv")])
    return [d / "risks.csv"]


def _eval_out(d):
    _predict_csv(d)
    main(["eval", "--task", "surv", "--pred", str(d / "risks.csv"),
          "--truth", str(d / "ehr.csv"), "--out", str(d / "eval.json")])
    return [d / "eval.json"]


def _si_sidecar(d):
    (d / "in").mkdir(exist_ok=True)
    _volume(d / "in")
    convert_si_dir(d / "in", d)
    return [d / "v.si.json"]


WRITERS = {"checkpoint": _checkpoint, "cox": _cox, "mtlr": _mtlr, "volume": _volume,
           "ehr": _ehr, "predict": _predict_csv, "eval": _eval_out, "si": _si_sidecar}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_leaves_no_temp_file(tmp_path, name):
    for path in WRITERS[name](tmp_path):
        assert path.stat().st_size > 0
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_rename_keeps_old_file(tmp_path, monkeypatch, name):
    outputs = WRITERS[name](tmp_path)
    for path in outputs:
        path.write_bytes(b"old")
    real = os.replace

    def fail_for_outputs(src, dst):
        if os.fspath(dst) in {os.fspath(p) for p in outputs}:
            raise OSError("simulated rename failure")
        return real(src, dst)

    monkeypatch.setattr(oncokit.errors.os, "replace", fail_for_outputs)
    with pytest.raises(OSError, match="simulated"):
        WRITERS[name](tmp_path)
    assert [p.read_bytes() for p in outputs] == [b"old"] * len(outputs)
    assert not list(tmp_path.rglob("*.tmp"))
