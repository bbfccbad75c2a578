"""Per-layer tracing from outside the program.

``Instrument`` replaces public oncokit functions and methods with timing
wrappers at every name an oncokit module binds them to (so ``conv`` is
wrapped in ``autodiff`` and in ``segnets``, which imports it), and puts the
originals back on ``uninstall``. Each wrapped call leaves a span (id, name,
start, end, parent id, round); spans stay in memory until ``write_spans``.
A span's self time is its duration minus the durations of its child spans.
Public autodiff ops without a span of their own are only counted, for
``op_calls``.

Untraced rounds install only the capture wrapper on ``cox_fit``, which keeps
the fitted models so the checks can read their ``ll_trajectory``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) of every function or method that gets a span
SPAN_TARGETS = [
    ("oncokit.autodiff", "conv"),
    ("oncokit.autodiff", "transposed_conv"),
    ("oncokit.autodiff", "maxpool"),
    ("oncokit.autodiff", "channel_norm"),
    ("oncokit.autodiff", "matmul"),
    ("oncokit.autodiff", "softmax"),
    ("oncokit.autodiff", "layer_norm"),
    ("oncokit.autodiff", "gelu"),
    ("oncokit.autodiff", "logsumexp"),
    ("oncokit.autodiff", "backward"),
    ("oncokit.optim", "adamw_step"),
    ("oncokit.preprocess", "resample_isotropic"),
    ("oncokit.augment", "augment"),
    ("oncokit.volume", "read_volume"),
    ("oncokit.volume", "write_volume"),
    ("oncokit.superimage", "to_super_image"),
    ("oncokit.superimage", "from_super_image"),
    ("oncokit.segnets", "UNet.forward"),
    ("oncokit.segnets", "UnetrDecoder.forward"),
    ("oncokit.segnets", "predict_mask"),
    ("oncokit.vit", "ViTEncoder.forward"),
    ("oncokit.tmss", "TmssModel.forward"),
    ("oncokit.tmss", "tmss_loss"),
    ("oncokit.losses", "combined_loss"),
    ("oncokit.cox", "cox_fit"),
    ("oncokit.cox", "cox_cohort_risks"),
    ("oncokit.mtlr", "mtlr_fit"),
    ("oncokit.mtlr", "mtlr_nll_from_scores"),
    ("oncokit.mtlr", "mtlr_cohort_risks"),
    ("oncokit.mtlr", "mtlr_risk"),
    ("oncokit.metrics", "concordance_detail"),
    ("oncokit.metrics", "dsc"),
    ("oncokit.ehr", "load_ehr"),
    ("oncokit.checkpoint", "save_checkpoint"),
    ("oncokit.checkpoint", "load_checkpoint"),
    ("oncokit.experiment", "run_experiment"),
    ("oncokit.experiment", "train_segmentation"),
    ("oncokit.cli", "cmd_predict"),
    ("oncokit.cli", "cmd_eval"),
]

_SPAN_NAMES = {"cmd_predict": "predict", "cmd_eval": "eval"}
_MB = 1e6


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Instrument:
    """Installs wrappers, collects spans and counters, derives metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.cox_models: list = []
        self.round = 0
        self.phase = "train"
        self.traced_rounds = 0
        self.macs_per_sample = 0
        self._next_id = 0
        self._stack: list[list] = []     # [span id, child seconds] per open span
        self._saved: list[tuple] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.sums: dict[str, float] = defaultdict(float)
        self.train_resamples = 0
        self.train_paths: set[str] = set()

    # ------------------------------------------------------------ patching
    def _patch(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "oncokit" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install_capture(self) -> None:
        self._patch("oncokit.cox", "cox_fit", self._capturing)

    def install_trace(self) -> None:
        import oncokit.autodiff as ad

        spanned = {attr for mod, attr in SPAN_TARGETS if mod == "oncokit.autodiff"}
        ops = [name for name, fn in vars(ad).items()
               if callable(fn) and getattr(fn, "__module__", None) == ad.__name__
               and not name.startswith("_") and hasattr(fn, "__code__")
               and "_record" in fn.__code__.co_names]
        for name in ops:
            if name not in spanned:
                self._patch("oncokit.autodiff", name, self._counting)
        for module_name, attr in SPAN_TARGETS:
            is_op = module_name == "oncokit.autodiff" and attr in ops
            self._patch(module_name, attr,
                        lambda fn, a=attr, op=is_op: self._spanning(fn, a, op))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------ wrappers
    def _capturing(self, fn):
        def captured(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.cox_models.append(model)
            return model
        return captured

    def _counting(self, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls["op_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanning(self, fn, attr: str, is_op: bool):
        name = _SPAN_NAMES.get(attr, attr)
        hook = getattr(self, "_after_" + attr.replace(".", "_"), None)

        def spanned(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.round))
            self.busy[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if is_op:
                self.calls["op_calls"] += 1
            if hook is not None:
                hook(args, kwargs, out, duration)
            return out
        return spanned

    # ------------------------------------------------------------ hooks
    def _after_conv(self, args, kwargs, out, duration):
        weight = _arg(args, kwargs, 1, "weight")
        c_out, c_in, *kernel = weight.shape
        window = c_in
        for k in kernel:
            window *= k
        positions = out.data.size // c_out
        rank = len(kernel)
        self.sums[f"conv{rank}d.mac"] += window * c_out * positions
        self.sums[f"conv{rank}d.busy_s"] += duration
        self.sums["conv.cols_bytes"] += window * positions * 8

    def _after_backward(self, args, kwargs, out, duration):
        self.sums["tape_nodes"] += len(_arg(args, kwargs, 0, "tape"))

    def _after_read_volume(self, args, kwargs, out, duration):
        path = str(_arg(args, kwargs, 0, "path"))
        self.sums["read_bytes"] += _file_bytes(path)
        if self.phase == "train":
            self.train_paths.add(path)

    def _after_resample_isotropic(self, args, kwargs, out, duration):
        if self.phase == "train":
            self.train_resamples += 1

    def _after_save_checkpoint(self, args, kwargs, out, duration):
        path = str(_arg(args, kwargs, 1, "path"))
        self.sums["bytes_written"] += _file_bytes(path, path + ".json")

    def _after_cox_fit(self, args, kwargs, out, duration):
        self.cox_models.append(out)
        self.sums["newton_iterations"] += out.iterations

    def _after_mtlr_fit(self, args, kwargs, out, duration):
        self.sums["fit_iterations"] += out.iterations

    # ------------------------------------------------------------ results
    def metrics(self, names: list[str], overhead_pct: float) -> dict:
        """Per traced round, the value of each named metric. Names other than
        the derived ones below are ``<span>.busy_s``, ``<span>.self_s`` or
        ``<span>.calls`` of a span this module records."""
        rounds = max(self.traced_rounds, 1)
        busy = {k: v / rounds for k, v in self.busy.items()}
        sums = {k: v / rounds for k, v in self.sums.items()}
        # preprocessing passes per volume per training run
        per_run = len(self.train_paths) * self.calls["run_experiment"]
        values = {
            "conv.cols_mb": sums.get("conv.cols_bytes", 0.0) / _MB,
            "tape_nodes": sums.get("tape_nodes", 0.0),
            "op_calls": self.calls["op_calls"] / rounds,
            "repeat_ratio": self.train_resamples / per_run if per_run else 0.0,
            "read_mb": sums.get("read_bytes", 0.0) / _MB,
            "macs_per_sample": float(self.macs_per_sample),
            "newton_iterations": sums.get("newton_iterations", 0.0),
            "fit_iterations": sums.get("fit_iterations", 0.0),
            "mb_written": sums.get("bytes_written", 0.0) / _MB,
            "trace.overhead_pct": overhead_pct,
        }
        for rank in (2, 3):
            gmac = sums.get(f"conv{rank}d.mac", 0.0) / 1e9
            seconds = sums.get(f"conv{rank}d.busy_s", 0.0)
            values[f"conv{rank}d.gmac"] = gmac
            values[f"conv{rank}d.gmac_per_s"] = gmac / seconds if seconds else 0.0
        spanned = {_SPAN_NAMES.get(attr, attr) for _, attr in SPAN_TARGETS}
        for name in names:
            if name in values:
                continue
            layer, _, kind = name.rpartition(".")
            if layer not in spanned:
                raise KeyError(name)
            if kind == "busy_s":
                values[name] = busy.get(layer, 0.0)
            elif kind == "self_s":
                values[name] = self.self_s.get(layer, 0.0) / rounds
            elif kind == "calls":
                values[name] = self.calls[layer] / rounds
            else:
                raise KeyError(name)
        return {name: values[name] for name in names}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": round(start - origin, 7),
                                     "end": round(end - origin, 7),
                                     "parent": parent, "run": rnd}) + "\n")
