import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphimpute.graph import build, in_sorted
from graphimpute.model import mean_operators


def event_neighbors(g, event):
    """Patients adjacent to the event, read off the event-side mean operator
    (a CSC view of the patient rows, so read through its event-row CSR)."""
    ae = mean_operators(g)[1].tocsr()
    return ae.indices[ae.indptr[event] : ae.indptr[event + 1]]


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
    x = g.matrix()
    assert x.shape == (4, 3) and x.nnz == 0
    assert np.array_equal(x.toarray(), np.zeros((4, 3)))


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build(np.array([[0, 3]]), 2, 3)
    with pytest.raises(ValueError):
        build(np.array([[2, 0]]), 2, 3)


def test_build_rejects_duplicates():
    # repeated adjacent or apart, or out of order with no repeat
    for pairs in ([[0, 1], [0, 1]], [[0, 1], [0, 1], [1, 0]], [[0, 1], [1, 0], [0, 1]],
                  [[1, 2], [0, 0], [1, 2], [0, 1]], [[0, 2], [0, 1]], [[1, 0], [0, 2]]):
        with pytest.raises(ValueError, match="^edges must ascend with no repeats$"):
            build(np.array(pairs), 2, 3)


def test_trailing_patients_without_edges():
    g = build(np.array([[0, 2], [1, 0], [1, 1]]), 5, 3)
    assert g.patient_indptr.tolist() == [0, 1, 3, 3, 3, 3]
    assert g.patient_indices.tolist() == [2, 0, 1]
    assert g.patient_neighbors(4).tolist() == []


def test_adjacency_sorted_and_mutually_transposed(tiny_graph):
    g = tiny_graph
    for i in range(g.num_patients):
        nbrs = g.patient_neighbors(i)
        assert np.all(np.diff(nbrs) > 0) or len(nbrs) <= 1
        for j in nbrs:
            assert i in event_neighbors(g, int(j))
    for j in range(g.num_events):
        nbrs = event_neighbors(g, j)
        assert np.all(np.diff(nbrs) > 0) or len(nbrs) <= 1
        for i in nbrs:
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


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_bitset_membership_matches_sorted_codes(data):
    # patients x events need not be a multiple of 8, and the first and last
    # cells are always queried
    m = data.draw(st.integers(1, 13))
    n = data.draw(st.integers(1, 13))
    cells = data.draw(st.sets(st.integers(0, m * n - 1), max_size=m * n))
    pairs = np.array([divmod(c, n) for c in sorted(cells)], dtype=np.int64).reshape(-1, 2)
    g = build(pairs, m, n)
    extra = data.draw(st.lists(st.integers(0, m * n - 1), max_size=30))
    queries = np.array([0, m * n - 1, *extra, *range(m * n)], dtype=np.int64)
    expect = in_sorted(g.edge_codes(), queries)
    assert np.array_equal(g.contains_codes(queries), expect)
    assert np.array_equal(g.contains_pairs(np.column_stack(np.divmod(queries, n))), expect)


@pytest.mark.parametrize("pairs", [[[0, 0], [1, 2]], np.empty((0, 2))])
def test_cached_edge_arrays_are_read_only(pairs):
    g = build(np.asarray(pairs, dtype=np.int64), 2, 3)
    assert g.all_edges() is g.all_edges() and g.edge_codes() is g.edge_codes()
    for array in (g.all_edges(), g.edge_codes()):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 1


def test_contains_pairs_outside_the_grid_is_false(tiny_graph):
    # each column is checked on its own: the codes of [1, -3], [0, 6] and
    # [2, -2] used to alias the edges (0, 2), (1, 1) and (1, 3)
    queries = np.array([[-1, 4], [6, 0], [0, 0], [5, 4], [1, -3], [0, 6], [2, -2]])
    assert tiny_graph.contains_pairs(queries).tolist() == [
        False, False, True, True, False, False, False
    ]


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
        (int(i), j) for j in range(n) for i in event_neighbors(g, j)
    }
    assert from_patients == from_events == cells
    dense = np.zeros((m, n))
    dense[tuple(np.array(sorted(cells), dtype=np.int64).reshape(-1, 2).T)] = 1.0
    x = g.matrix()
    assert x.dtype == np.float64 and x.nnz == len(cells)
    assert np.array_equal(x.toarray(), dense)
