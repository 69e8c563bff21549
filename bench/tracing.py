"""Spans around the calls into each skewlab layer, for the traced run.

No file of the program changes. ``Tracer.install`` rebinds the module-level
names through which one skewlab module calls another (for example
``skewlab.harness.hermitian_eigen``), the public names the benchmark itself
calls, and the catalogue functions' ``value`` methods, to wrappers that
record a span per call; ``Tracer.uninstall`` puts the originals back, so
untraced passes run the program exactly as shipped.

A span is (id, parent id, name, start, end, self seconds). Self time is the
span's duration minus the time its child spans cover. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# Every span name the traced run reports, grouped by the layer it measures.
SPAN_NAMES = (
    "cli.main",
    "cli.report",
    "harness.run_campaign",
    "harness.sample_density",
    "harness.sample_observable",
    "harness.evaluate_inequality",
    "linalg.DensityMatrix",
    "linalg.HermitianMatrix",
    "linalg.hermitian_eigen",
    "linalg.element_table",
    "functions.check_assumption",
    "functions.ratio_bounds",
    "functions.classify_pair",
    "functions.beta_coefficient",
    "functions.l_scan_min",
    "functions.lemma41_check",
    "functions.value",
    "quantities.wy_skew",
    "quantities.wyd_family",
    "quantities.gwyd_family",
    "quantities.gwyd_tilde_family",
    "quantities.fgh_family",
    "quantities.fgh_eigensum",
    "quantities.luo_u",
)

_FUNCTIONS = ("check_assumption", "ratio_bounds", "classify_pair", "beta_coefficient")
_QUANTITIES = ("wy_skew", "wyd_family", "gwyd_family", "gwyd_tilde_family",
               "fgh_family", "fgh_eigensum", "luo_u")

# (module, attribute path, span name, wrapper kind)
BINDINGS = (
    ("skewlab.cli", "main", "cli.main", "call"),
    ("skewlab.cli", "run_campaign", "harness.run_campaign", "call"),
    ("skewlab.harness", "CampaignReport.to_json_text", "cli.report", "call"),
    ("skewlab.harness", "CampaignReport.csv_rows", "cli.report", "generator"),
    ("skewlab.harness", "sample_density", "harness.sample_density", "call"),
    ("skewlab.harness", "sample_observable", "harness.sample_observable", "call"),
    ("skewlab.harness", "evaluate_inequality", "harness.evaluate_inequality", "call"),
    ("skewlab.harness", "DensityMatrix", "linalg.DensityMatrix", "call"),
    ("skewlab.harness", "HermitianMatrix", "linalg.HermitianMatrix", "call"),
    ("skewlab.harness", "hermitian_eigen", "linalg.hermitian_eigen", "call"),
    ("skewlab.harness", "element_table", "linalg.element_table", "call"),
    ("skewlab.quantities", "hermitian_eigen", "linalg.hermitian_eigen", "call"),
    ("skewlab.quantities", "element_table", "linalg.element_table", "call"),
    ("skewlab.linalg", "hermitian_eigen", "linalg.hermitian_eigen", "call"),
    ("skewlab.linalg", "element_table", "linalg.element_table", "call"),
    *(("skewlab.harness", n, f"functions.{n}", "call") for n in _FUNCTIONS),
    *(("skewlab.functions", n, f"functions.{n}", "call")
      for n in (*_FUNCTIONS, "l_scan_min", "lemma41_check")),
    *(("skewlab.functions", f"{cls}.value", "functions.value", "value")
      for cls in ("Power", "Exp", "Const", "ScaledSum")),
    *(("skewlab.quantities", n, f"quantities.{n}", "call") for n in _QUANTITIES),
)

# functions.value counts evaluations on state spectra only: calls made
# directly from these layers, not the grid evaluations inside functions.*.
_SPECTRUM_CALLERS = ("harness.", "quantities.")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []   # [id, name, parent id, child seconds, start]
        self._next_id = 0
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, parent, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[4]
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((frame[0], frame[2], frame[1], frame[4], end, duration - frame[3]))

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        if kind == "generator":
            def traced(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        elif kind == "value":
            def traced(obj, x):
                stack = tracer._stack
                if not stack or not stack[-1][1].startswith(_SPECTRUM_CALLERS):
                    return fn(obj, x)
                frame = tracer._enter(name)
                try:
                    return fn(obj, x)
                finally:
                    tracer._exit(frame)
        else:
            def traced(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        return functools.wraps(fn, updated=())(traced)

    def install(self) -> None:
        """Rebind every name in BINDINGS; names the program no longer has are
        listed in ``missing`` and left alone."""
        if self._saved:
            return
        self.missing = []
        for module_name, path, span, kind in BINDINGS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, kind, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def summary(self) -> dict:
        """{span name: (calls, self seconds)} over the recorded spans."""
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for _sid, _parent, name, _start, _end, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(end - start for _s, parent, _n, start, end, _x in self.spans
                   if parent == -1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}))
                fh.write("\n")
