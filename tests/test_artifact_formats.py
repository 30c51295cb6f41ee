"""Every artifact format is written and read by ``experiments``: the
modules that compute (``protocol``, ``optics``, ``metrics``) import no
file format, and each reader and writer is defined in ``experiments``.

A round's trace record and its reachability CSV are built from one text of
its ordering, which ``write_trace`` returns for each round: the trace must
still be ``json.dumps``' bytes, and each writer must give the right bytes
whichever runs first, however often, and for every round of a multi-round
trial, an empty one too."""

import ast
import inspect
import io
import json
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, strategies as st
from optics_reference import reference_reachability_csv

from optics_coverage import experiments, metrics, optics, protocol
from optics_coverage.config import RunConfig
from optics_coverage.metrics import RoundReport
from optics_coverage.network import Deployment
from optics_coverage.optics import Ordering
from optics_coverage.protocol import RoundState, SelectionTree

FORMATS = [
    "write_trace",
    "read_trace",
    "write_reachability_csv",
    "_ordering_text",
    "write_table_csv",
    "write_coverage_grid_csv",
]


def imported_modules(module) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", [protocol, optics, metrics], ids=lambda m: m.__name__)
def test_computing_modules_import_no_file_format(module):
    assert not imported_modules(module) & {"csv", "json"}
    assert not set(FORMATS) & vars(module).keys()


@pytest.mark.parametrize("name", FORMATS)
def test_every_reader_and_writer_is_defined_in_experiments(name):
    assert getattr(experiments, name).__module__ == "optics_coverage.experiments"


# The trace's ordering rows and the reachability CSV are built from one text
# of the ordering's columns, which a round's two writers share

AWKWARD_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 0.1]
)
IDS = st.one_of(
    st.integers(-8, 8), st.integers(2**63 - 8, 2**63 - 1), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def orderings(draw):
    n = draw(st.integers(0, 10))
    column = st.lists(st.one_of(AWKWARD_FLOATS, st.floats(width=64)), min_size=n, max_size=n)
    return Ordering(draw(st.lists(IDS, min_size=n, max_size=n)), draw(column), draw(column))


def reference_trace(deployment, rounds):
    """The trace as ``json.dumps`` writes each record whole, the ordering
    as ``[id, reachability, core distance]`` rows with None for NaN."""
    columns = deployment.ids.tolist(), deployment.x.tolist(), deployment.y.tolist()
    header = {
        "type": "header",
        "region": [deployment.region_width, deployment.region_height],
        "radius": deployment.radius,
        "seed": deployment.seed,
        "nodes": list(zip(*columns)),
    }
    lines = [json.dumps(header)]
    for state, report in rounds:
        rows = [
            [pid, *(None if v != v else v for v in (reach, core))]
            for pid, reach, core in zip(*(c.tolist() for c in state.ordering.columns()))
        ]
        record = {
            "type": "round",
            "round_index": state.round_index,
            "active": sorted(state.active),
            "trees": [
                {"cluster_id": t.cluster_id, "root": t.root, "edges": t.edges}
                for t in state.trees
            ],
            "report": asdict(report),
            "ordering": rows,
        }
        lines.append(json.dumps(record))
    return "".join(line + "\n" for line in lines)


def trace_text(deployment, rounds):
    out = io.StringIO()
    experiments.write_trace(out, deployment, rounds)
    return out.getvalue()


def csv_text(ordering, text=None):
    out = io.StringIO(newline="")
    experiments.write_reachability_csv(ordering, out, text)
    return out.getvalue()


def one_round(ordering, round_index=1):
    tree = SelectionTree(0, 1, [(1, 2)])
    report = RoundReport(3, 2, 66.7, 80.5, 79.25)
    return RoundState(round_index, {1, 2}, {}, [tree], ordering), report


DEPLOYMENT = Deployment([1, 2, 3], [0.5, 1.0, 2.5], [1.0, 0.1, 3.0], [1.0] * 3, 10.0, 10.0, 1.5)


@given(orderings())
@example(Ordering())
@example(Ordering([-(2**63), 2**63 - 1], [math.nan, -0.0], [math.inf, -math.inf]))
@example(Ordering([0, -1, 7], [5e-324, 1e300, 0.0], [math.nan, math.nan, -1e300]))
def test_trace_bytes_are_json_dumps_of_the_record(ordering):
    rounds = [one_round(ordering)]
    assert trace_text(DEPLOYMENT, rounds) == reference_trace(DEPLOYMENT, rounds)
    json.loads(trace_text(DEPLOYMENT, rounds).splitlines()[1])


@pytest.mark.parametrize("csv_first", [False, True], ids=["trace-first", "csv-first"])
def test_either_writer_first_gives_both_right(csv_first):
    ordering = Ordering([4, 2, 9], [math.nan, 0.5, math.inf], [0.25, math.nan, -0.0])
    rounds = [one_round(ordering)]
    if csv_first:
        assert csv_text(ordering) == reference_reachability_csv(ordering)
    out = io.StringIO()
    texts = experiments.write_trace(out, DEPLOYMENT, rounds)
    assert out.getvalue() == reference_trace(DEPLOYMENT, rounds)
    assert texts == [experiments._ordering_text(ordering)]
    assert csv_text(ordering, texts[0]) == reference_reachability_csv(ordering)
    assert csv_text(ordering) == reference_reachability_csv(ordering)


def test_repeated_and_alternating_calls_give_each_ordering_its_own_text():
    a = Ordering([1, 2], [math.nan, 0.75], [0.5, 0.25])
    b = Ordering([2, 1], [math.nan, 1.25], [math.nan, 0.125])
    for ordering in (a, a, b, a, b, b, Ordering(), a):
        rounds = [one_round(ordering)]
        assert csv_text(ordering) == reference_reachability_csv(ordering)
        assert trace_text(DEPLOYMENT, rounds) == reference_trace(DEPLOYMENT, rounds)
        assert csv_text(ordering) == reference_reachability_csv(ordering)
    # two rounds of one trace, each ordering written between the others'
    rounds = [one_round(a, 1), one_round(b, 2), one_round(a, 3)]
    assert trace_text(DEPLOYMENT, rounds) == reference_trace(DEPLOYMENT, rounds)


def test_multi_round_trial_writes_each_rounds_trace_record_and_csv(tmp_path):
    config = replace(RunConfig(), d_list=(120,), trials=1, rounds=4, grid_resolution=50)
    deployment, rounds, outcome = experiments._run_trial(config, 120, 0, config.rounds)
    assert outcome.succeeded and len(rounds) == 4
    experiments._write_trial_artifacts(tmp_path, deployment, 120, 0, rounds)
    trace = (tmp_path / "trace_D120_trial0.jsonl").read_text()
    assert trace == reference_trace(deployment, rounds)
    for state, _ in rounds:
        path = tmp_path / f"reachability_D120_trial0_round{state.round_index}.csv"
        assert path.read_bytes().decode() == reference_reachability_csv(state.ordering)


def test_multi_round_sweep_formats_each_ordering_once(tmp_path, monkeypatch):
    # a trial's trace returns every round's text, which that round's CSV
    # is written from, so no round is formatted twice
    calls, ordering_text = [], experiments._ordering_text
    traces, write_trace = [], experiments.write_trace

    def counted(ordering):
        calls.append(ordering)
        return ordering_text(ordering)

    def recorded(out, deployment, rounds):
        texts = write_trace(out, deployment, rounds)
        traces.append(([state.ordering for state, _ in rounds], texts))
        return texts

    monkeypatch.setattr(experiments, "_ordering_text", counted)
    monkeypatch.setattr(experiments, "write_trace", recorded)
    config = replace(RunConfig(), rounds=4, d_list=(100, 300), trials=2)
    experiments.run_table_experiment(config, tmp_path)
    written = list(tmp_path.glob("reachability_*.csv"))
    assert len(calls) == len(written) == 16
    assert len({id(o) for o in calls}) == 16
    assert len(traces) == 4
    for orderings, texts in traces:
        assert texts == [ordering_text(o) for o in orderings]


def test_an_empty_round_gets_no_csv_and_every_other_round_its_own_text(tmp_path):
    # round 1 activates all six nodes of a small field; in round 2 each is
    # asleep or, below the drain, dead, so its ordering is empty, and round
    # 3 orders the five survivors, so a text written to the wrong round's
    # CSV would show
    config = replace(
        RunConfig(),
        width=10.0,
        height=10.0,
        min_pts=2,
        eps_prime=10.0,
        theta=0.0,
        battery_drain=0.7,
        grid_resolution=10,
    )
    deployment, rounds, outcome = experiments._run_trial(config, 6, 0, 3)
    assert outcome.succeeded
    assert rounds[0][1].active_count == 6
    assert [len(state.ordering) for state, _ in rounds] == [6, 0, 5]
    experiments._write_trial_artifacts(tmp_path, deployment, 6, 0, rounds)
    with open(tmp_path / "trace_D6_trial0.jsonl") as fh:
        _, records = experiments.read_trace(fh)
    assert [record["ordering"] == [] for record in records] == [False, True, False]
    written = sorted(path.name for path in tmp_path.glob("reachability_*.csv"))
    assert written == ["reachability_D6_trial0_round1.csv", "reachability_D6_trial0_round3.csv"]
    for state, _ in rounds[::2]:
        path = tmp_path / f"reachability_D6_trial0_round{state.round_index}.csv"
        assert path.read_bytes().decode() == reference_reachability_csv(state.ordering)
