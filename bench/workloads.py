"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks on what the pass produced.

A pass reaches the program only through ``skewlab.cli.main`` and the public
functions of its modules, always looked up on the module at call time so
that the traced run's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import hashlib
import io
import json
import math
import re
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skewlab import cli, functions, harness, linalg, quantities

NAIVE = "NAIVE_WY_SHOULD_FAIL"


class Ops:
    """Counts the operations a pass attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, weight: int = 1, **kwargs):
        self.attempted += weight
        try:
            return fn(*args, **kwargs)
        except Exception:  # an operation that raises is counted, and the pass goes on
            self.failed += weight
            traceback.print_exc(file=sys.stderr)
            return None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Timing fields (wall_time_seconds today) are dropped before digesting.
_TIMING_LINE = re.compile(rb'\n\s*"[A-Za-z_]*_seconds": [^\n]*')


def report_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = _TIMING_LINE.sub(b"", data)
    return _sha256(data)


# --------------------------------------------------------------------------
# campaigns


@dataclass(frozen=True)
class CampaignRun:
    doc: dict            # validated campaign config
    fmt: str             # report format
    config_path: Path
    report_path: Path
    argv: tuple[str, ...]

    @property
    def evaluations(self) -> int:
        return len(self.doc["dims"]) * self.doc["samples_per_dim"] * len(self.doc["inequalities"])


@dataclass(frozen=True)
class Campaign:
    """``skewlab verify`` over the bundled campaign's 14 entries.

    ``parts`` lists (dims, samples per dim, report format), one verify call
    each. The bundled seed is offset by the benchmark seed, so seed 0 is the
    bundled default campaign itself.
    """

    name: str
    parts: tuple[tuple[tuple[int, ...], int, str], ...]
    threads: int

    def build(self, seed: int) -> list[tuple[dict, str]]:
        base = cli.load_default_config()
        out = []
        for dims, samples, fmt in self.parts:
            doc = dict(base, seed=base["seed"] + seed, dims=list(dims), samples_per_dim=samples)
            harness.config_from_dict(doc)
            out.append((doc, fmt))
        return out

    def prepare(self, inputs, workdir: Path, tag: str = "") -> list[CampaignRun]:
        runs = []
        for i, (doc, fmt) in enumerate(inputs):
            config_path = workdir / f"{self.name}{tag}-{i}.config.json"
            report_path = workdir / f"{self.name}{tag}-{i}.report.{fmt}"
            config_path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ("verify", str(config_path), "--out", str(report_path),
                    "--format", fmt, "--threads", str(self.threads))
            runs.append(CampaignRun(doc, fmt, config_path, report_path, argv))
        return runs

    def warmup_inputs(self, inputs):
        """The same calls with two samples per dimension."""
        return [(dict(doc, samples_per_dim=2), fmt) for doc, fmt in inputs]

    def run_pass(self, runs: list[CampaignRun], ops: Ops) -> list:
        outcome = []
        for run in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = ops.call(cli.main, list(run.argv), weight=run.evaluations)
            if rc not in (0, None):   # None: it raised, and Ops counted it already
                ops.failed += run.evaluations
            outcome.append((rc, out.getvalue()))
        return outcome

    def digest(self, runs: list[CampaignRun], outcome) -> str:
        parts = [report_digest(run.report_path) if rc == 0 else "failed"
                 for run, (rc, _) in zip(runs, outcome)]
        return _sha256(" ".join(parts).encode())

    def report_bytes(self, runs: list[CampaignRun]) -> int:
        return sum(run.report_path.stat().st_size for run in runs
                   if run.report_path.exists())

    def evaluations(self, runs: list[CampaignRun]) -> int:
        return sum(run.evaluations for run in runs)

    def check(self, runs: list[CampaignRun], outcome) -> list[str]:
        import oracle

        problems = []
        for run, (rc, stdout) in zip(runs, outcome):
            where = f"{self.name} dims={run.doc['dims']}"
            if rc != 0:
                problems.append(f"{where}: verify exited {rc}")
                continue
            status = _parse_status_lines(stdout)
            if run.fmt == "json":
                problems += _check_json_report(where, run, status, oracle)
            else:
                problems += _check_csv_report(where, run, status)
        return problems


def _parse_status_lines(stdout: str) -> list[tuple[str, str, int, int]]:
    """(status, id, samples, violations) for each entry line verify prints."""
    pattern = re.compile(r"^(PASS|VIOLATED) (\w+): samples=(\d+) violations=(\d+) ")
    out = []
    for line in stdout.splitlines():
        m = pattern.match(line)
        if m:
            out.append((m.group(1), m.group(2), int(m.group(3)), int(m.group(4))))
    return out


def _assertive(entry: dict) -> bool:
    return entry.get("assert_pass", entry["id"] != NAIVE)


def _naive_must_fail(doc: dict) -> bool:
    # The naive product bound fails on about two thirds of dim-2 samples
    # and, measured, on none at dims 16 and above.
    return 2 in doc["dims"]


def _matrix(doc: dict) -> np.ndarray:
    n = int(doc["dim"])
    flat = np.array([complex(re_, im) for re_, im in doc["entries"]], dtype=complex)
    return flat.reshape(n, n)


def _check_json_report(where, run: CampaignRun, status, oracle) -> list[str]:
    problems = []
    doc = run.doc
    report = json.loads(run.report_path.read_text(encoding="utf-8"))
    entries = report["inequalities"]
    expected_samples = len(doc["dims"]) * doc["samples_per_dim"]
    if len(entries) != len(doc["inequalities"]):
        return [f"{where}: {len(entries)} report entries for {len(doc['inequalities'])} configured"]
    if len(status) != len(entries):
        problems.append(f"{where}: {len(status)} status lines for {len(entries)} entries")
    for k, entry in enumerate(entries):
        line = status[k] if k < len(status) else None
        ineq = entry["setting"]["id"]
        tag = f"{where} entry {k} {ineq}"
        if entry["samples"] != expected_samples:
            problems.append(f"{tag}: {entry['samples']} samples, expected {expected_samples}")
        if _assertive(entry["setting"]) and entry["violations"] != 0:
            problems.append(f"{tag}: {entry['violations']} violations")
        if ineq == NAIVE and _naive_must_fail(doc) and entry["violations"] < 1:
            problems.append(f"{tag}: the naive bound never failed")
        if line is not None and (line[1], line[2], line[3]) != (
                ineq, entry["samples"], entry["violations"]):
            problems.append(f"{tag}: printed {line[1:]} disagrees with the report")
        worst = entry["worst_case"]
        if worst is None:
            problems.append(f"{tag}: no worst case")
            continue
        if worst["margin"] != entry["min_margin"] or worst["lhs"] - worst["rhs"] != worst["margin"]:
            problems.append(f"{tag}: replayed worst case does not reproduce min_margin")
        if worst["dim"] not in doc["dims"] or not 0 <= worst["index"] < doc["samples_per_dim"]:
            problems.append(f"{tag}: worst case ({worst['dim']}, {worst['index']}) out of range")
        if ineq in oracle.CAMPAIGN_IDS:
            rho, a, b = (_matrix(worst[key]) for key in ("rho", "a", "b"))
            lhs, rhs = oracle.campaign_lhs_rhs(ineq, rho, a, b, worst["params"])
            for label, mine, theirs in (("lhs", worst["lhs"], lhs), ("rhs", worst["rhs"], rhs)):
                if oracle.rel_diff(mine, theirs) > oracle.REL_TOL:
                    problems.append(f"{tag}: worst-case {label} {mine!r} vs oracle {theirs!r}")
    return problems


def _check_csv_report(where, run: CampaignRun, status) -> list[str]:
    problems = []
    doc = run.doc
    with open(run.report_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["id", "n", "lhs", "rhs", "margin", "pass"]]:
        return [f"{where}: unexpected CSV header {rows[:1]}"]
    rows = rows[1:]
    ids = [e["id"] for e in doc["inequalities"]]
    expected = Counter()
    for ineq in ids:
        for n in doc["dims"]:
            expected[(ineq, str(n))] += doc["samples_per_dim"]
    counts = Counter((r[0], r[1]) for r in rows)
    if len(rows) != len(ids) * len(doc["dims"]) * doc["samples_per_dim"] or counts != expected:
        wrong = {k: (counts[k], expected[k]) for k in expected | counts if counts[k] != expected[k]}
        problems.append(f"{where}: {len(rows)} rows; (id, n): (rows, expected) {wrong}")
    slack = doc["slack"]
    failing = Counter()
    for r in rows:
        lhs, rhs, margin = float(r[2]), float(r[3]), float(r[4])
        if lhs - rhs != margin:
            problems.append(f"{where}: row {r} has margin != lhs - rhs")
            break
        passed = r[5] == "true"
        if passed != (margin >= -slack * max(abs(lhs), abs(rhs), 1.0)):
            problems.append(f"{where}: row {r} pass flag disagrees with the slack rule")
            break
        if not passed:
            failing[r[0]] += 1
    if set(failing) - {NAIVE}:
        problems.append(f"{where}: failing rows outside {NAIVE}: {dict(failing)}")
    if _naive_must_fail(doc) and failing[NAIVE] < 1:
        problems.append(f"{where}: the naive bound never failed")
    printed = Counter()
    for _status, ineq, _samples, violations in status:
        printed[ineq] += violations
    if len(status) != len(ids) or +printed != +failing:
        problems.append(f"{where}: printed violations {dict(printed)} vs rows {dict(failing)}")
    return problems


# --------------------------------------------------------------------------
# analysis


def _p(p):
    return {"kind": "power", "p": p}


def _e(a):
    return {"kind": "exp", "a": a}


def _c(c):
    return {"kind": "const", "c": c}


def _s(*terms):
    return {"kind": "scaled_sum", "terms": [list(t) for t in terms]}


# (label, triple spec, assumption it satisfies, constant ratios (k, l) or None).
# The class follows from the exponents: with log-derivative ratios k (g over
# f) and l (h over f), condition I is 1 + k <= l with h increasing, and
# condition II is 1 + k + l >= 0 with h non-increasing.
TRIPLES = (
    ("default-sqrt", {"f": _p(0.25), "g": _p(0.25), "h": _p(0.5)}, "I", (1.0, 2.0)),
    ("default-inverse-sqrt", {"f": _p(1.0), "g": _p(1.0), "h": _p(-0.5)}, "II", (1.0, -0.5)),
    ("default-scaled-sum", {"f": _p(1.0), "g": _s((1.0, 2.0), (1.0, 1.0)), "h": _p(4.0)},
     "I", None),
    ("cor41-pair", {"f": _p(0.5), "g": _p(1 / 3), "h": _c(1.0)}, "II", (2 / 3, 0.0)),
    ("exp-I", {"f": _e(1.0), "g": _e(0.5), "h": _e(2.0)}, "I", (0.5, 2.0)),
    ("exp-II", {"f": _e(1.0), "g": _e(1.0), "h": _e(-1.0)}, "II", (1.0, -1.0)),
    ("scaled-sum-II", {"f": _p(1.0), "g": _s((1.0, 1.0), (1.0, 2.0)), "h": _p(-0.25)},
     "II", None),
    ("const-h", {"f": _p(0.5), "g": _p(0.5), "h": _c(2.0)}, "II", (1.0, 0.0)),
    ("neither-h-too-flat", {"f": _p(1.0), "g": _p(1.0), "h": _p(0.5)}, "neither", (1.0, 0.5)),
    ("neither-anti-g", {"f": _p(1.0), "g": _p(-1.0), "h": _p(1.0)}, "neither", (-1.0, 1.0)),
    ("neither-exp", {"f": _e(1.0), "g": _e(1.0), "h": _e(-3.0)}, "neither", (1.0, -3.0)),
)

GRID = 2000
LEMMA_STEPS = 200_000
LEMMA_DRAWS = 4            # per admissible regime
STATE_DIMS = (2, 3, 4, 8, 16, 32, 64)
# Enough states that quantities and their linalg calls are about a quarter
# of a pass; the oracle, at ~30 matrix functions a state, checks the first few.
STATES_PER_DIM = 20
ORACLE_STATES_PER_DIM = 3
STATE_DELTA = 1e-3


@dataclass
class AnalysisInputs:
    triples: list             # (label, spec, FunctionTriple, assumption, ratios)
    lemma: list               # (a, b, c)
    states: list              # (DensityMatrix, HermitianMatrix, params dict)


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


class Analysis:
    """Function-triple analysis and both quantity evaluation paths."""

    name = "analysis"
    threads = 1

    def build(self, seed: int) -> AnalysisInputs:
        rng = np.random.Generator(np.random.Philox(key=seed))
        triples = [(label, spec, functions.triple_from_spec(spec), cls, ratios)
                   for label, spec, cls, ratios in TRIPLES]
        lemma = []
        for _ in range(LEMMA_DRAWS):
            a, b = rng.uniform(0.05, 2.0, 2)
            lemma.append((float(a), float(b), float(rng.uniform(a + b, a + b + 2.0))))
            a, b = rng.uniform(0.05, 2.0, 2)
            lemma.append((float(a), float(b), float(-rng.uniform(0.0, 0.95 * (a + b)))))
        states = []
        for n in STATE_DIMS:
            for k in range(STATES_PER_DIM):
                g = _ginibre(n, rng)
                w = g @ g.conj().T
                rho = (1 - STATE_DELTA) * w / np.trace(w).real + STATE_DELTA / n * np.eye(n)
                x = _ginibre(n, rng)
                u = rng.uniform(0.0, 1.0, 6)
                s = 0.5 * u[1] if k % 2 == 0 else 1.0 + u[1]   # both THM22 regimes
                params = {
                    "alpha": float(u[0]),
                    "gwyd": (float(s * u[2]), float(s * (1.0 - u[2]))),
                    "tilde": (float(0.05 + 1.95 * u[3]), float(0.05 + 1.95 * u[4])),
                }
                states.append((linalg.DensityMatrix(rho),
                               linalg.HermitianMatrix((x + x.conj().T) / 2), params))
        return AnalysisInputs(triples, lemma, states)

    def prepare(self, inputs, workdir: Path, tag: str = "") -> AnalysisInputs:
        return inputs

    def warmup_inputs(self, inputs: AnalysisInputs) -> AnalysisInputs:
        return AnalysisInputs(inputs.triples[:1], inputs.lemma[:1], inputs.states[:1])

    def run_pass(self, inputs: AnalysisInputs, ops: Ops) -> dict:
        F, Q, L = functions, quantities, linalg
        out = {"triples": [], "lemma": [], "states": []}
        for _label, _spec, triple, _cls, _ratios in inputs.triples:
            bounds = ops.call(F.ratio_bounds, triple, k=GRID)
            out["triples"].append({
                "bounds": bounds,
                "beta": ops.call(F.beta_coefficient, bounds),
                "assumption": ops.call(F.check_assumption, triple),
                "fg": ops.call(F.classify_pair, triple.f, triple.g, k=GRID),
                "fh": ops.call(F.classify_pair, triple.f, triple.h, k=GRID),
                "scan": ops.call(F.l_scan_min, triple, k=GRID),
            })
        for a, b, c in inputs.lemma:
            out["lemma"].append(ops.call(F.lemma41_check, a, b, c, steps=LEMMA_STEPS))
        bounded = [t for t in inputs.triples if t[3] != "neither"]
        for rho, h, params in inputs.states:
            alpha = params["alpha"]
            ga, gb = params["gwyd"]
            ta, tb = params["tilde"]
            decomp = ops.call(L.hermitian_eigen, rho)
            table = ops.call(L.element_table, decomp, h)
            out["states"].append({
                "wy": ops.call(Q.wy_skew, rho, h),
                "luo_u": ops.call(Q.luo_u, rho, h),
                "wyd": ops.call(Q.wyd_family, rho, h, alpha),
                "wyd_half": ops.call(Q.wyd_family, rho, h, 0.5),
                "gwyd": ops.call(Q.gwyd_family, rho, h, ga, gb),
                "tilde": ops.call(Q.gwyd_tilde_family, rho, h, ta, tb),
                "fgh": [ops.call(Q.fgh_family, rho, h, t[2]) for t in bounded],
                "eigensum": [ops.call(Q.fgh_eigensum, decomp, table, t[2]) for t in bounded],
            })
        return out

    def digest(self, inputs, outcome: dict) -> str:
        def plain(x):
            if isinstance(x, dict):
                return {k: plain(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [plain(v) for v in x]
            if isinstance(x, np.ndarray):
                return _sha256(x.tobytes())
            if hasattr(x, "__dataclass_fields__"):
                return plain(vars(x))
            if isinstance(x, enum.Enum):
                return x.value
            return repr(x)

        return _sha256(json.dumps(plain(outcome), sort_keys=True).encode())

    def report_bytes(self, inputs) -> int:
        return 0

    def evaluations(self, inputs) -> int:
        return 0

    def check(self, inputs: AnalysisInputs, out: dict) -> list[str]:
        import oracle

        problems = []
        tol = oracle.REL_TOL
        for (label, spec, _triple, cls, ratios), got in zip(inputs.triples, out["triples"]):
            if any(v is None for v in got.values()):
                problems.append(f"{label}: an analysis call raised")
                continue
            if got["assumption"].value != cls:
                problems.append(f"{label}: assumption {got['assumption'].value}, expected {cls}")
            if cls != "neither":
                fh_ok = {"I": ("monotone",), "II": ("anti-monotone",)}[cls]
                if spec["h"]["kind"] == "const":
                    fh_ok = ("monotone", "anti-monotone")  # a constant partner is both
                if got["fg"][0].value != "monotone" or got["fh"][0].value not in fh_ok:
                    problems.append(f"{label}: pair classes {got['fg'][0].value}, "
                                    f"{got['fh'][0].value} contradict assumption {cls}")
            if ratios is not None:
                want = oracle.beta_closed_form(*ratios)
                if abs(got["beta"] - want) > 1e-12 * max(1.0, abs(want)):
                    problems.append(f"{label}: beta {got['beta']!r}, closed form {want!r}")
            scan = got["scan"]
            if cls != "neither" and scan.min_value < 16.0 * got["beta"] - 1e-9:
                problems.append(f"{label}: min L {scan.min_value!r} < 16 beta")
            ref = oracle.l_value(spec, scan.arg_x, scan.arg_y)
            if oracle.rel_diff(scan.min_value, ref) > tol:
                problems.append(f"{label}: min L {scan.min_value!r} vs oracle {ref!r}")
        for (a, b, c), rep in zip(inputs.lemma, out["lemma"]):
            tag = f"lemma41({a:.4g}, {b:.4g}, {c:.4g})"
            if rep is None:
                problems.append(f"{tag}: raised")
                continue
            rhs = 16.0 * a * b / (a + b + c) ** 2
            if rep.violations != 0 or not math.isfinite(rep.min_margin):
                problems.append(f"{tag}: {rep.violations} violations, min margin {rep.min_margin!r}")
            if oracle.rel_diff(rep.rhs, rhs) > 1e-12:
                problems.append(f"{tag}: rhs {rep.rhs!r} vs {rhs!r}")
            for i in np.linspace(0, rep.r_grid.size - 1, 9).astype(int):
                r = float(rep.r_grid[i])
                if abs(r) < 0.1:
                    continue
                ref = oracle.lemma41_lhs(a, b, c, r)
                if oracle.rel_diff(float(rep.margins[i]) + rep.rhs, ref) > tol:
                    problems.append(f"{tag}: lhs at r={r!r} vs oracle {ref!r}")
        bounded = [t for t in inputs.triples if t[3] != "neither"]
        for k, ((rho_m, h_m, params), got) in enumerate(zip(inputs.states, out["states"])):
            tag = f"state {k} (dim {rho_m.dim})"
            if any(v is None for v in got.values()) or None in got["fgh"] + got["eigensum"]:
                problems.append(f"{tag}: a quantity call raised")
                continue
            rho, h = np.asarray(rho_m), np.asarray(h_m)
            if oracle.rel_diff(got["wyd_half"].I, got["wy"]) > 1e-12:
                problems.append(f"{tag}: wyd_family(0.5).I {got['wyd_half'].I!r} != wy_skew {got['wy']!r}")
            for t, q, es in zip(bounded, got["fgh"], got["eigensum"]):
                if (oracle.rel_diff(q.I, es.I) > tol
                        or oracle.rel_diff(q.J, es.J_pairsum + es.J_diag) > tol):
                    problems.append(f"{tag}: fgh {t[0]} trace path ({q.I!r}, {q.J!r}) vs "
                                    f"pair sums ({es.I!r}, {es.J_pairsum + es.J_diag!r})")
            if k % STATES_PER_DIM >= ORACLE_STATES_PER_DIM:
                continue
            refs = [
                ("wyd", got["wyd"], oracle.wyd(rho, h, params["alpha"]), "IJUV"),
                ("gwyd", got["gwyd"], oracle.gwyd(rho, h, *params["gwyd"]), "IJ"),
                ("gwyd_tilde", got["tilde"], oracle.gwyd_tilde(rho, h, *params["tilde"]), "IJ"),
            ]
            refs += [(f"fgh {t[0]}", q, oracle.fgh(rho, h, t[1]), "IJ")
                     for t, q in zip(bounded, got["fgh"])]
            for name, bundle, ref, keys in refs:
                for key in keys:
                    mine = getattr(bundle, key)
                    if name == "gwyd" and key == "I":
                        # skewlab forms this I as t0 + e_ab - e_a - e_b, which
                        # cancels when alpha * beta is small, so it is held to
                        # the scale of those terms (J), not to I itself.
                        bad = abs(mine - ref["I"]) > tol * max(abs(ref["I"]), abs(ref["J"]))
                    else:
                        bad = oracle.rel_diff(mine, ref[key]) > tol
                    if bad:
                        problems.append(f"{tag}: {name} {key} {mine!r} vs oracle {ref[key]!r}")
            ref_u = oracle.luo_u(rho, h)
            if oracle.rel_diff(got["luo_u"], ref_u) > tol:
                problems.append(f"{tag}: luo_u {got['luo_u']!r} vs oracle {ref_u!r}")
        return problems


WORKLOADS = {
    "campaign-small": Campaign("campaign-small", (((2, 3, 4, 8), 1000, "json"),), threads=1),
    "campaign-large": Campaign(
        "campaign-large", (((64,), 200, "json"), ((256,), 20, "csv")), threads=1),
    "campaign-parallel-csv": Campaign(
        "campaign-parallel-csv", (((2, 3, 4, 8), 1000, "csv"),), threads=2),
    "analysis": Analysis(),
}
