import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphimpute.graph import build, remove_edges


def test_build_degrees_worked_example():
    g = build(np.array([[0, 1], [0, 2], [1, 2]]), 2, 3)
    assert g.patient_degrees().tolist() == [2, 1]
    assert g.event_degrees().tolist() == [0, 1, 2]
    assert g.edge_count == 3


def test_build_empty():
    g = build(np.empty((0, 2), dtype=np.int64), 4, 3)
    assert g.patient_degrees().tolist() == [0, 0, 0, 0]
    assert g.event_degrees().tolist() == [0, 0, 0]
    assert g.edge_count == 0


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build(np.array([[0, 3]]), 2, 3)
    with pytest.raises(ValueError):
        build(np.array([[2, 0]]), 2, 3)


def test_build_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        build(np.array([[0, 1], [0, 1]]), 2, 3)


def test_adjacency_sorted_and_mutually_transposed(tiny_graph):
    g = tiny_graph
    for i in range(g.num_patients):
        nbrs = g.patient_neighbors(i)
        assert np.all(np.diff(nbrs) > 0) or len(nbrs) <= 1
        for j in nbrs:
            assert i in g.event_neighbors(int(j))
    for j in range(g.num_events):
        for i in g.event_neighbors(j):
            assert j in g.patient_neighbors(int(i))


def test_degree_sums_match(tiny_graph):
    g = tiny_graph
    assert g.patient_degrees().sum() == g.event_degrees().sum() == g.edge_count


def test_contains_against_set_oracle():
    rng = np.random.default_rng(0)
    m, n = 40, 30
    mask = rng.random((m, n)) < 0.1
    pairs = np.column_stack(np.nonzero(mask)).astype(np.int64)
    g = build(pairs, m, n)
    members = {(int(i), int(j)) for i, j in pairs}
    queries = rng.integers(0, [m, n], size=(10_000, 2))
    assert g.contains_pairs(queries).tolist() == [(int(i), int(j)) in members for i, j in queries]


def test_contains_pairs_vectorized_matches_scalar(tiny_graph):
    g = tiny_graph
    members = {(int(i), int(j)) for i, j in g.all_edges()}
    queries = np.array([[0, 0], [0, 1], [5, 4], [4, 4]])
    flags = g.contains_pairs(queries)
    assert flags.tolist() == [(int(i), int(j)) in members for i, j in queries]


def test_all_edges_round_trip(tiny_graph):
    g = tiny_graph
    g2 = build(g.all_edges(), g.num_patients, g.num_events)
    assert np.array_equal(g2.patient_indptr, g.patient_indptr)
    assert np.array_equal(g2.patient_indices, g.patient_indices)
    assert np.array_equal(g2.event_indptr, g.event_indptr)
    assert np.array_equal(g2.event_indices, g.event_indices)


def test_remove_edges_all_and_none(tiny_graph):
    g = tiny_graph
    empty = remove_edges(g, g.all_edges())
    assert empty.edge_count == 0
    same = remove_edges(g, np.empty((0, 2), dtype=np.int64))
    assert np.array_equal(same.patient_indices, g.patient_indices)
    assert same.edge_count == g.edge_count


def test_remove_edges_degree_arithmetic(tiny_graph):
    g = tiny_graph
    drop = np.array([[0, 0], [2, 4]])
    g2 = remove_edges(g, drop)
    dp = np.bincount(drop[:, 0], minlength=g.num_patients)
    de = np.bincount(drop[:, 1], minlength=g.num_events)
    assert np.array_equal(g2.patient_degrees(), g.patient_degrees() - dp)
    assert np.array_equal(g2.event_degrees(), g.event_degrees() - de)
    # original untouched
    assert g.contains_pairs(np.array([[0, 0]])).tolist() == [True]


def test_remove_edges_missing_edge_error(tiny_graph):
    with pytest.raises(ValueError, match="non-existent"):
        remove_edges(tiny_graph, np.array([[0, 1]]))


def test_union_of_removed_reproduces_graph(tiny_graph):
    g = tiny_graph
    drop = np.array([[0, 2], [3, 1], [5, 4]])
    g2 = remove_edges(g, drop)
    rebuilt = build(
        np.concatenate([g2.all_edges(), drop]), g.num_patients, g.num_events
    )
    assert np.array_equal(rebuilt.patient_indptr, g.patient_indptr)
    assert np.array_equal(rebuilt.patient_indices, g.patient_indices)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_transpose_property_random_graphs(data):
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 12))
    cells = data.draw(
        st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=40)
    )
    pairs = np.array(sorted(cells), dtype=np.int64).reshape(-1, 2)
    g = build(pairs, m, n)
    assert g.edge_count == len(cells)
    # transpose both ways and compare against the edge set
    from_patients = {
        (i, int(j)) for i in range(m) for j in g.patient_neighbors(i)
    }
    from_events = {
        (int(i), j) for j in range(n) for i in g.event_neighbors(j)
    }
    assert from_patients == from_events == cells
