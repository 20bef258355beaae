import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgo.g2o_io import ParseError, load_g2o, save_g2o
from dpgo.geometry import Pose2
from dpgo.graph import EDGE_FIELDS, VERTEX_FIELDS, EdgeOrigin, NonPSDInformation

from conftest import edge, make_graph, rand_graph, vertex


def test_roundtrip_preserves_everything(tmp_path, rng):
    g = rand_graph(rng, n_poses=15, n_loops=6)
    path = tmp_path / "graph.g2o"
    save_g2o(g, path)
    g2 = load_g2o(path)
    assert set(g2.vertices) == set(g.vertices)
    for vid, v in g.vertices.items():
        w = g2.vertices[vid]
        assert (w.robot, w.timestep) == (v.robot, v.timestep)
        assert np.abs(w.estimate.as_vector() - v.estimate.as_vector()).max() < 1e-9
        assert np.abs(w.truth.as_vector() - v.truth.as_vector()).max() < 1e-9
    assert len(g2.edges) == len(g.edges)
    for e, f in zip(g.edges, g2.edges):
        assert (f.from_id, f.to_id, f.origin) == (e.from_id, e.to_id, e.origin)
        assert np.abs(f.rel.as_vector() - e.rel.as_vector()).max() < 1e-9
        assert np.abs(np.asarray(f.info) - np.asarray(e.info)).max() < 1e-9


def test_plain_file_without_extensions(tmp_path):
    path = tmp_path / "plain.g2o"
    path.write_text(
        "VERTEX_SE2 0 0 0 0\n"
        "VERTEX_SE2 1 1 0 0\n"
        "VERTEX_SE2 2 2 0 0\n"
        "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n"
        "EDGE_SE2 0 2 2 0 0 1 0 0 1 0 1\n"
    )
    g = load_g2o(path)
    assert g.num_vertices == 3 and g.num_edges == 2
    assert g.edges[0].origin == EdgeOrigin.ODOMETRY  # consecutive ids
    assert g.edges[1].origin == EdgeOrigin.INTRA_LOOP
    assert g.vertices[2].truth is None


def test_info_matrix_permutation(tmp_path):
    # q-values are (x, y, theta) upper triangle; internal order is (theta, x, y)
    path = tmp_path / "perm.g2o"
    path.write_text(
        "VERTEX_SE2 0 0 0 0\n"
        "VERTEX_SE2 1 1 0 0\n"
        "EDGE_SE2 0 1 1 0 0 4 0.1 0.2 5 0.3 6\n"
    )
    g = load_g2o(path)
    info = np.asarray(g.edges[0].info)
    assert info[0, 0] == 6.0  # theta-theta
    assert info[1, 1] == 4.0  # x-x
    assert info[2, 2] == 5.0  # y-y
    assert info[0, 1] == 0.2  # theta-x
    assert info[0, 2] == 0.3  # theta-y
    assert info[1, 2] == 0.1  # x-y


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.g2o"
    path.write_text("")
    with pytest.raises(ParseError):
        load_g2o(path)


def test_malformed_records(tmp_path):
    path = tmp_path / "bad.g2o"
    path.write_text("VERTEX_SE2 0 0 0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_g2o(path)
    path.write_text("WHAT 1 2 3\n")
    with pytest.raises(ParseError, match="unknown record"):
        load_g2o(path)
    path.write_text("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nEDGE_SE2 0 1 1 0 0 1 0 0 1 0 x\n")
    with pytest.raises(ParseError, match="line 3"):
        load_g2o(path)


def test_non_psd_information_is_rejected(tmp_path):
    path = tmp_path / "npsd.g2o"
    path.write_text(
        "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nEDGE_SE2 0 1 1 0 0 -1 0 0 1 0 1\n"
    )
    with pytest.raises(NonPSDInformation, match="line 3"):
        load_g2o(path)


def test_non_finite_fields_are_rejected_with_line_numbers(tmp_path):
    path = tmp_path / "nonfinite.g2o"
    path.write_text("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 nan\n")
    with pytest.raises(ParseError, match="line 2: expected a finite number"):
        load_g2o(path)
    vertices = "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n"
    for edge in ("EDGE_SE2 0 1 inf 0 0 1 0 0 1 0 1", "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 -inf"):
        path.write_text(vertices + edge + "\n")
        with pytest.raises(ParseError, match="line 3: expected a finite number"):
            load_g2o(path)


DATASET_DIR = os.environ.get("DPGO_DATASET_DIR", "datasets")


@pytest.mark.parametrize(
    "name,n_vertices,n_edges",
    [("intel.g2o", 1228, 1483), ("M3500.g2o", 3500, 5453)],
)
def test_reference_dataset_counts(name, n_vertices, n_edges):
    path = os.path.join(DATASET_DIR, name)
    if not os.path.exists(path):
        pytest.skip(f"reference dataset {name} not present under {DATASET_DIR}/")
    g = load_g2o(path)
    assert g.num_vertices == n_vertices
    assert g.num_edges == n_edges


def test_bad_origin_code_is_a_parse_error_with_its_line(tmp_path):
    path = tmp_path / "origin.g2o"
    path.write_text("VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\n# ORIGIN 7\nEDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n")
    with pytest.raises(ParseError, match="line 4: .*origin code 7"):
        load_g2o(path)


def test_non_psd_information_on_a_later_edge_names_its_line(tmp_path):
    path = tmp_path / "later.g2o"
    path.write_text(
        "VERTEX_SE2 0 0 0 0\nVERTEX_SE2 1 1 0 0\nVERTEX_SE2 2 2 0 0\n"
        "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n"
        "EDGE_SE2 1 2 1 0 0 1 0 0 1 0 1\n"
        "EDGE_SE2 0 2 2 0 0 1 0 0 1 0 -1\n"
        "EDGE_SE2 0 2 2 0 0 1 0 0 1 0 1\n"
    )
    with pytest.raises(NonPSDInformation, match="line 6: "):
        load_g2o(path)


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def small_graphs(draw):
    """Graphs with id gaps, vertices without truth, random SPD information and all four origins."""
    n = draw(st.integers(2, 6))
    vids = sorted(draw(st.sets(st.integers(0, 60), min_size=n, max_size=n)))
    robots = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    vertices = []
    for k, vid in enumerate(vids):
        est = Pose2(draw(_finite), draw(_finite), draw(st.floats(-10.0, 10.0)))
        truth = draw(st.none() | st.builds(Pose2, _finite, _finite, st.floats(-10.0, 10.0)))
        vertices.append(vertex(vid, robots[k], k, est, truth))  # timestep k: rows k, k + 1 of one robot are consecutive
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        origins = [EdgeOrigin.INTRA_LOOP, EdgeOrigin.INTER_ESTIMATE, EdgeOrigin.INTER_LOOP]
        if robots[a] == robots[b] and abs(a - b) == 1:
            origins.append(EdgeOrigin.ODOMETRY)
        root = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))).reshape(3, 3)
        rel = Pose2(draw(_finite), draw(_finite), draw(st.floats(-10.0, 10.0)))
        edges.append(edge(vids[a], vids[b], rel, root @ root.T + 0.5 * np.eye(3), draw(st.sampled_from(origins))))
    return make_graph(vertices, edges)


@settings(max_examples=150, deadline=None, database=None)
@given(g=small_graphs())
def test_roundtrip_is_bit_identical(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.g2o")
        save_g2o(g, path)
        h = load_g2o(path)
    for name in VERTEX_FIELDS + EDGE_FIELDS + ("e_from", "e_to"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
