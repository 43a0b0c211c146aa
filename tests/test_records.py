"""The value records: equality, hashing, ``repr`` and read-only fields.

``Graph``, ``CoolingTrace``, ``ClosedForm`` and ``verify.CheckRow`` are
plain classes and the other records ``NamedTuple``s, so that no runtime
path but the solver's and the bounds report's loads ``dataclasses``.
"""

from __future__ import annotations

import dataclasses

import pytest

from coolnum.bounds import IsoProfile, bounds_report
from coolnum.engine import CoolingTrace, RoundRecord, validate_sequence
from coolnum.generators import gen_cycle, gen_path, ilt
from coolnum.graphs import build_graph, known_connected
from coolnum.solver import SearchLimits, SearchStats, cooling_number
from coolnum.strategies import FORMS, ClosedForm, closed_form, spider_strategy
from coolnum.verify import CheckRow, SuiteReport


class TestGraph:
    def test_equal_by_order_and_adjacency(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g == gen_path(4) and hash(g) == hash(gen_path(4))
        assert g != build_graph(4, [(0, 1), (1, 2), (0, 3)])  # same order, other edges
        assert g != gen_path(5)
        assert g != (4, g.adj)

    def test_fields_are_read_only(self):
        g = gen_path(3)
        with pytest.raises(AttributeError, match="^cannot assign to Graph.n$"):
            g.n = 4
        with pytest.raises(AttributeError, match="^cannot assign to Graph.is_connected$"):
            g.is_connected = False
        with pytest.raises(AttributeError, match="^cannot delete Graph.adj$"):
            del g.adj
        assert (g.n, g.adj) == (3, ((1,), (0, 2), (1,)))

    def test_cached_properties_and_preset_live_in_the_instance(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.distances is g.distances
        assert vars(g).keys() == {"n", "adj", "distances"}
        assert vars(known_connected(build_graph(2, [(0, 1)])))["is_connected"] is True

    def test_repr(self):
        assert repr(gen_cycle(5)) == "Graph(n=5, m=5)"


class TestCoolingTrace:
    def test_equal_and_hashed_by_rounds(self):
        a = validate_sequence(gen_path(5), [1, 3])
        b = CoolingTrace(tuple(RoundRecord(*r) for r in a.rounds))
        assert a == b and hash(a) == hash(b)
        assert a != validate_sequence(gen_path(5), [1, 4])
        assert a != a.rounds

    def test_fields_are_read_only(self):
        trace = validate_sequence(gen_path(2), [0])
        with pytest.raises(AttributeError, match="^cannot assign to CoolingTrace.rounds$"):
            trace.rounds = ()
        with pytest.raises(AttributeError, match="^cannot delete CoolingTrace.rounds$"):
            del trace.rounds
        assert trace.cooled_round is trace.cooled_round == {0: 1, 1: 2}

    def test_repr(self):
        trace = validate_sequence(gen_path(3), [0])
        assert repr(trace) == (
            "CoolingTrace(rounds=(RoundRecord(round=1, spread=frozenset(), source=0), "
            "RoundRecord(round=2, spread=frozenset({1}), source=2)))")


def _named_tuples():
    g = gen_path(3)
    return [
        RoundRecord(1, frozenset(), 0),
        SearchLimits(5, 1.0),
        cooling_number(g).stats,
        IsoProfile(2, (0, 1, 0)),
        spider_strategy(1, 1),
        FORMS["path"],
        ilt(g),
        SuiteReport("s", []),
    ]


@pytest.mark.parametrize("record", _named_tuples(), ids=lambda r: type(r).__name__)
def test_named_tuple_fields_are_read_only(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert record == type(record)(*record)


def test_search_limits_hash_by_value():
    assert SearchLimits(5) == SearchLimits(max_nodes=5, time_budget=None)
    assert hash(SearchLimits(5)) == hash(SearchLimits(max_nodes=5))
    assert SearchLimits() != SearchLimits(5)


def test_search_stats_repr_names_every_field():
    assert repr(SearchStats(3, 1, 0.5, capacity_cuts=2)) == (
        "SearchStats(expanded=3, memo_hits=1, wall_time=0.5, roots=0, ecc_cuts=0, "
        "counting_cuts=0, probes=0, capacity_cuts=2)")


class TestClosedForm:
    def test_equal_by_all_fields(self):
        assert closed_form("grid", {"n": 5}) == ClosedForm("grid", {"n": 5}, "window", 4, 7)
        assert closed_form("grid", {"n": 5}) != ClosedForm("grid", {"n": 5}, "window", 4, 8)
        assert closed_form("path", {"n": 4}) != closed_form("path", {"n": 5})

    def test_repr(self):
        assert repr(closed_form("cycle", {"n": 8})) == (
            "ClosedForm(family='cycle', params={'n': 8}, kind='exact', lo=4, hi=4)")


class TestCheckRow:
    def test_each_row_has_its_own_failures(self):
        a, b = CheckRow("a", 0), CheckRow("b", 0)
        a.failures.append("x")
        assert b.failures == [] and b.ok and not a.ok

    def test_equal_by_all_fields(self):
        assert CheckRow("a", 2, ["x"]) == CheckRow("a", 2, ["x"])
        assert CheckRow("a", 2, ["x"]) != CheckRow("a", 2)

    def test_repr(self):
        assert repr(CheckRow("a", 2, ["x"])) == "CheckRow(name='a', instances=2, failures=['x'])"


def test_solver_and_bounds_results_keep_dataclass_replace():
    g = gen_path(4)
    result = cooling_number(g)
    assert dataclasses.replace(result, value=9).value == 9
    assert dataclasses.replace(bounds_report(g), iso_upper=1).iso_upper == 1
