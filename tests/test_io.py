"""Tests for edge-list persistence."""

from __future__ import annotations

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.io import load_edge_list, save_edge_list


def sample_graph():
    builder = GraphBuilder()
    builder.add_edge("a", "b", "red")
    builder.add_edge("b", "c", "green")
    builder.add_edge("c", "a", "red")
    return builder.build()


class TestEdgeListRoundtrip:
    def test_roundtrip(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        assert sorted(loaded.label_universe.names) == sorted(
            g.label_universe.names
        )

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 red\n1 2 blue\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0 red\n0 1 red\n")
        g = load_edge_list(path)
        assert g.num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 red\n0 1\n")
        with pytest.raises(ValueError, match="expected 'u v label'"):
            load_edge_list(path)

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,red\n1,2,blue\n")
        g = load_edge_list(path, delimiter=",")
        assert g.num_edges == 2

    def test_directed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 red\n1 0 red\n")
        g = load_edge_list(path, directed=True)
        assert g.directed
        assert g.num_edges == 2
