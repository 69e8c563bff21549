"""Campaign reports: the JSON writer against ``json.dumps``, and the replay of
each worst case's sample.

``CampaignReport.to_json_text`` and ``SampleRecord.to_json_text`` render the
worst cases' matrices straight from their arrays. Their text must equal
``json.dumps(to_json(), indent=2, sort_keys=True)`` byte for byte.
"""

import concurrent.futures
import gc
import json
import math
import multiprocessing
import tracemalloc
from contextlib import closing
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewlab import cli, harness
from skewlab.linalg import matrix_json_text, matrix_to_json

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CYCLED = {
    "seed": 77,
    "dims": [2, 5],
    "samples_per_dim": 9,
    "inequalities": [
        {"id": "THM21_WYD", "alpha": [0.1, 0.35, 0.8]},
        {"id": "CHAIN_25", "alpha": [0.2, 0.6]},
        {"id": "THM22_GWYD", "alpha": 0.2, "beta": 0.15},
        {"id": "THM23_TILDE", "alpha": 0.4, "beta": 1.3},
        {"id": "THM31_FGH", "triple": {
            "f": {"kind": "power", "p": 1.0},
            "g": {"kind": "power", "p": 2.0},
            "h": {"kind": "const", "c": 1.0},
        }},
        {"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
         "g": {"kind": "power", "p": 0.3333333333333333}},
        {"id": "NAIVE_WY_SHOULD_FAIL"},
        {"id": "HEISENBERG_21"},
    ],
}


def _dumps(doc, indent=2):
    return json.dumps(doc, indent=indent, sort_keys=True)


def _config(name):
    base = cli.load_default_config()
    if name == "default":
        return harness.config_from_dict(base)
    if name == "cycled":
        return harness.config_from_dict(CYCLED)
    return harness.config_from_dict(dict(base, dims=[int(name)], samples_per_dim=3))


@pytest.fixture(scope="module", params=["default", "16", "64", "cycled"])
def report(request):
    return harness.run_campaign(_config(request.param), threads=1)


@pytest.mark.parametrize("indent", [2])
def test_report_text_equals_json_dumps(report, indent):
    assert report.to_json_text() == _dumps(report.to_json(), indent)


def test_record_text_equals_json_dumps(report):
    for stats in report.stats:
        assert stats.worst.to_json_text() == _dumps(stats.worst.to_json())


def test_non_finite_scalars_serialize_as_json_dumps():
    rec = harness.search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=200, seed=5)
    rec.lhs, rec.rhs, rec.margin = math.nan, math.inf, -math.inf
    rec.params = {"alpha": math.nan, "link": "x"}
    report = harness.CampaignReport(
        config={"seed": 1, "nested": {"empty": {}, "list": [], "pair": (1, -0.0)}},
        config_hash="h",
        stats=[harness.InequalityStats(setting={"id": "NAIVE_WY_SHOULD_FAIL"},
                                       samples=1, violations=1, min_margin=math.nan,
                                       worst=rec)],
        wall_time=0.5,
    )
    text = report.to_json_text()
    assert text == _dumps(report.to_json())
    assert '"lhs": NaN' in text and '"margin": -Infinity' in text
    assert rec.to_json_text() == _dumps(rec.to_json())


def test_record_without_matrices():
    rec = harness.search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=200, seed=5)
    rec.state = rec.obs_a = rec.obs_b = None
    assert rec.to_json_text() == _dumps(rec.to_json())


def test_counterexample_stdout_is_json_dumps_of_the_record(capsys):
    args = dict(budget=300, seed=4, dim=3)
    assert cli.main(["counterexample", "--id", "NAIVE_WY_SHOULD_FAIL", "--budget", "300",
                     "--seed", "4", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    rec = harness.search_counterexample("NAIVE_WY_SHOULD_FAIL", **args)
    header = "".join(
        line + "\n" for line in (
            f"violation at index {rec.index} (dim {rec.dim})",
            f"lhs = {rec.lhs:.17g}",
            f"rhs = {rec.rhs:.17g}",
            f"margin = {rec.margin:.17g}",
        )
    )
    assert out == header + _dumps(rec.to_json()) + "\n"


# -------------------------------------------------------------- the writer

_scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True)
)
_matrices = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                       min_size=n * n, max_size=n * n)
    .map(lambda zs, n=n: np.array(zs, dtype=complex).reshape(n, n))
)


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=5), kids, max_size=4),
        max_leaves=12,
    )


def _as_json(node):
    """The document ``json.dumps`` sees: each array as its matrix_to_json node."""
    if isinstance(node, np.ndarray):
        return matrix_to_json(node)
    if isinstance(node, dict):
        return {k: _as_json(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_as_json(v) for v in node]
    return node


@PROPERTY
@given(doc=_documents(_scalars | _matrices))
def test_writer_equals_json_dumps(doc):
    assert harness._json_text(doc) == _dumps(_as_json(doc))


def test_shared_array_rendered_once():
    a = np.arange(4, dtype=complex).reshape(2, 2)
    doc = {"x": a, "y": a, "z": [a.copy()]}
    with patch.object(harness, "matrix_json_text", wraps=matrix_json_text) as render:
        text = harness._json_text(doc)
    assert text == _dumps(_as_json(doc))
    # "x" and "y" share one array at one depth; "z" holds another array
    assert render.call_count == 2


def test_strings_that_read_as_markers_stay_strings():
    # json.dumps writes a marker in each array's place: on the first layout
    # "\x000\x00" for the array at "c" and "\x001\x00" for the one at "e",
    # both copied into strings that come earlier in the text
    a = np.arange(4, dtype=complex).reshape(2, 2)
    doc = {"a": "\x000\x00", "b": ["\x001\x00", "\x00123\x00"], "c": a,
           "d": 'x"\x002\x00', "e": {"f": a}}
    assert harness._json_text(doc) == _dumps(_as_json(doc))


def test_report_with_shared_worst_cases_equals_json_dumps():
    report = harness.run_campaign(_config("16"), threads=1)
    report.replay_worst_cases()
    states = [s.worst.state for s in report.stats]
    assert len({id(state) for state in states}) < len(states)   # samples shared
    assert report.to_json_text() == json.dumps(report.to_json(), indent=2, sort_keys=True)


def test_writer_keeps_the_finite_check():
    with pytest.raises(ValueError, match="finite"):
        harness._json_text({"rho": np.array([[1.0, np.nan], [0.0, 1.0]])})


# -------------------------------------------------------------- the replay

@pytest.mark.parametrize("block_elements", [harness._BLOCK_ELEMENTS, 8])
def test_each_distinct_worst_case_is_drawn_once(block_elements):
    config = _config("cycled")
    calls = []

    def spy(seed, dim, indices, delta):
        calls.append((dim, indices.tolist()))
        return draw(seed, dim, indices, delta)

    draw = harness._draw_block
    with patch.object(harness, "_draw_block", spy), \
            patch.object(harness, "_BLOCK_ELEMENTS", block_elements):
        report = harness.run_campaign(config, threads=1)
        blocks = len(harness._blocks(config))
        assert len(calls) == blocks   # the campaign itself redraws nothing
        report.replay_worst_cases()
        replays = calls[blocks:]
        report.to_json_text()
        assert len(calls) == blocks + len(replays)   # and the replay runs once
        sizes = {dim: harness._block_size(dim) for dim in config.dims}
    worst = {(s.worst.dim, s.worst.index) for s in report.stats}
    # the distinct indices of each dim, sorted, in blocks no larger than the campaign's
    want = []
    for dim in sorted({d for d, _ in worst}):
        indices = sorted(i for d, i in worst if d == dim)
        want += [(dim, indices[k:k + sizes[dim]]) for k in range(0, len(indices), sizes[dim])]
    assert replays == want
    if block_elements == 8:   # two samples a block at dim 2, one at dim 5
        assert len(replays) > len({d for d, _ in worst})
    assert len(worst) < len(report.stats)   # some entries share a sample
    for s in report.stats:
        for t in report.stats:
            if (s.worst.dim, s.worst.index) == (t.worst.dim, t.worst.index):
                assert s.worst.state is t.worst.state
                assert s.worst.obs_b is t.worst.obs_b


@pytest.mark.parametrize("name", ["default", "64"])
def test_replayed_arrays_equal_draw_sample_bit_for_bit(name):
    config = _config(name)
    report = harness.run_campaign(config, threads=1)
    report.replay_worst_cases()
    for s in report.stats:
        one = harness._draw_sample(config.seed, s.worst.dim, s.worst.index, config.delta)
        for got, want in zip((s.worst.state, s.worst.obs_a, s.worst.obs_b), one):
            assert got.dtype == want.entries.dtype
            assert got.tobytes() == want.entries.tobytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_only_the_json_report_redraws_worst_cases(tmp_path, fmt):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CYCLED))
    config = harness.config_from_dict(CYCLED)
    calls = []

    def spy(*args):
        calls.append(args)
        return draw(*args)

    draw = harness._draw_block
    with patch.object(harness, "_draw_block", spy):
        argv = ["verify", str(path), "--out", str(tmp_path / f"r.{fmt}"), "--format", fmt]
        assert cli.main(argv) == 0
    blocks = len(harness._blocks(config))
    if fmt == "csv":
        assert len(calls) == blocks
    else:
        assert len(calls) > blocks


# -------------------------------------------------------------- the columns

def _csv_from_rows(report):
    """The reference for ``csv_rows``: the CSV lines formatted from the row
    tuples one by one."""
    return ["id,n,lhs,rhs,margin,pass"] + [
        f"{ineq},{dim},{lhs!r},{rhs!r},{margin!r},{str(passed).lower()}"
        for ineq, dim, _idx, lhs, rhs, margin, passed in report.rows
    ]


def _csv_items(report, threads):
    """``csv_rows(threads)`` as a list, checked to be the header and then one
    item per entry holding exactly that entry's reference lines, each ending
    in a newline."""
    items = list(report.csv_rows(threads))
    lines = [line + "\n" for line in _csv_from_rows(report)]
    assert items[0] == lines[0]
    assert len(items) == 1 + len(report.columns)
    start = 1
    for item, c in zip(items[1:], report.columns):
        assert item == "".join(lines[start : start + len(c.lhs)]), c.id
        start += len(c.lhs)
    assert start == len(lines)
    assert "".join(items) == "".join(lines)
    return items


def test_csv_rows_format_the_rows(report):
    for threads in (1, 2, 3):
        _csv_items(report, threads)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("entries, threads", [(None, 1), (1, 3)])
def test_csv_rows_on_one_worker_start_no_process(report, entries, threads):
    one = harness.CampaignReport(
        config={}, config_hash="h", stats=[], wall_time=0.0, columns=report.columns[:entries]
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    with patch.object(concurrent.futures, "ProcessPoolExecutor", refuse):
        _csv_items(one, threads)


def test_csv_rows_closed_early_leave_no_worker(report):
    text = report.csv_rows(2)
    assert next(text) == "id,n,lhs,rhs,margin,pass\n"
    assert next(text).startswith(report.columns[0].id + ",")
    text.close()
    assert multiprocessing.active_children() == []


def test_csv_write_failing_mid_report_leaves_no_worker(report):
    written = []

    def write(chunk):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(chunk)

    with pytest.raises(OSError, match="disk full"):
        with closing(report.csv_rows(2)) as text:
            for chunk in text:
                write(chunk)
    assert multiprocessing.active_children() == []
    assert "".join(written) == "".join(_csv_items(report, 1)[:3])


def test_rows_hold_python_scalars(report):
    rows = report.rows
    assert len(rows) == sum(s.samples for s in report.stats)
    for row in rows:
        assert tuple(map(type, row)) == (str, int, int, float, float, float, bool)


def test_csv_rows_of_non_finite_and_signed_zero_columns():
    dims, indices = np.array([2, 2, 3, 3]), np.array([0, 1, 0, 1])
    lhs = np.array([math.nan, math.inf, -0.0, 0.1])
    rhs = np.array([0.0, -math.inf, 0.0, 0.30000000000000004])
    margin = np.array([math.nan, math.inf, -0.0, -0.20000000000000004])
    passed = np.array([False, True, True, False])
    report = harness.CampaignReport(
        config={}, config_hash="h", stats=[], wall_time=0.0,
        columns=[harness.EntryColumns("A", dims, indices, lhs, rhs, margin, passed),
                 harness.EntryColumns("B", dims, indices, -lhs, rhs, -margin, ~passed)],
    )
    items = _csv_items(report, 1)
    assert [_csv_items(report, threads) for threads in (2, 3)] == [items, items]
    assert items[1] == (
        "A,2,nan,0.0,nan,false\n"
        "A,2,inf,-inf,inf,true\n"
        "A,3,-0.0,0.0,-0.0,true\n"
        "A,3,0.1,0.30000000000000004,-0.20000000000000004,false\n"
    )
    assert items[2].split("\n")[:3] == [
        "B,2,nan,0.0,nan,true", "B,2,-inf,-inf,-inf,false", "B,3,0.0,0.0,0.0,false",
    ]
    assert repr(report.rows[2]) == "('A', 3, 0, -0.0, 0.0, -0.0, True)"


def test_default_report_retains_under_5_mb():
    # the columns take about 1.5 MB; 56,000 row tuples of Python scalars
    # take 11.3 MB
    config = _config("default")
    gc.collect()
    tracemalloc.start()
    try:
        report = harness.run_campaign(config, threads=1)
        gc.collect()
        with_report = tracemalloc.get_traced_memory()[0]
        del report
        gc.collect()
        retained = with_report - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 5_000_000


# --------------------------------------------------------------- the matrix

def _loop_entries(a):
    """The element loop ``matrix_to_json`` used before it read the floats
    from the array."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).reshape(-1)]


@pytest.mark.parametrize("view", [
    lambda m: m, lambda m: m.T, lambda m: m[::-1, ::-1], lambda m: m.real,
    lambda m: np.asfortranarray(m),
])
def test_matrix_to_json_entries_match_element_loop(view):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 0] = -0.0
    a = view(m)
    doc = matrix_to_json(a)
    assert doc == {"dim": 4, "entries": _loop_entries(a)}
    assert repr(doc["entries"]) == repr(_loop_entries(a))   # -0.0 keeps its sign
    for level in (0, 3):
        assert matrix_json_text(a, level) == _dumps(doc).replace("\n", "\n" + "  " * level)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_to_json_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = complex(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        matrix_to_json(m)
    with pytest.raises(ValueError, match="finite"):
        matrix_json_text(m, 0)
