from __future__ import annotations

import json

import pytest

from coolnum.generators import gen_grid, gen_path
from coolnum.graph_io import export_dot, read_graph, write_graph
from coolnum.graphs import GraphError


def test_round_trip(tmp_path):
    g = gen_path(5)
    path = tmp_path / "p5.json"
    write_graph(g, path)
    assert read_graph(path) == g


def test_self_loop_in_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "edges": [[0, 1], [3, 3]]}')
    with pytest.raises(GraphError):
        read_graph(path)


def test_duplicate_edge_deduped_with_warning(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 2, "edges": [[0, 1], [1, 0]]}')
    with pytest.warns(UserWarning):
        g = read_graph(path)
    assert g.num_edges == 1



def test_duplicates_counted_in_either_orientation(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 4, "edges": [[0, 1], [1, 0], [2, 1], [0, 1], [1, 2], [2, 3]]}')
    with pytest.warns(UserWarning) as record:
        g = read_graph(path)
    assert [str(w.message) for w in record] == [f"{path}: dropped 3 duplicate edge(s)"]
    assert g == gen_path(4)


def test_duplicate_warning_comes_before_a_bad_edge_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 3, "edges": [[0, 1], [5, 0], [1, 0], [0, 5]]}')
    with pytest.warns(UserWarning, match="dropped 2 duplicate edge"):
        with pytest.raises(GraphError, match=r"^edge \(5, 0\) has an endpoint outside 0..2$"):
            read_graph(path)


@pytest.mark.parametrize("content", [
    "not json",
    "[1, 2]",
    '{"n": 3}',
    '{"n": "3", "edges": []}',
    '{"n": 3, "edges": [[0]]}',
    '{"n": 3, "edges": [[0, 1, 2]]}',
    '{"n": 3, "edges": [["a", 1]]}',
])
def test_malformed_files_rejected(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(GraphError):
        read_graph(path)


def test_edges_not_a_list_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": {}}')
    with pytest.raises(GraphError) as err:
        read_graph(path)
    assert str(err.value) == f'{path}: "edges" must be a list of pairs'


def test_written_file_is_canonical(tmp_path):
    path = tmp_path / "g.json"
    write_graph(gen_path(3), path)
    assert json.loads(path.read_text()) == {"n": 3, "edges": [[0, 1], [1, 2]]}


def test_dot_export(tmp_path):
    path = tmp_path / "g.dot"
    export_dot(gen_path(3), path)
    text = path.read_text()
    assert text.startswith("graph G {")
    assert "0 -- 1;" in text and "1 -- 2;" in text


def test_dot_export_grid_positions(tmp_path):
    path = tmp_path / "grid.dot"
    export_dot(gen_grid(2), path, grid_side=2)
    assert 'pos="' in path.read_text()
