import os

import numpy as np
import pytest

from dpgo.g2o_io import ParseError, load_g2o, save_g2o
from dpgo.graph import EdgeOrigin, NonPSDInformation

from conftest import rand_graph


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
