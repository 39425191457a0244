import numpy as np
import pytest

from morphosim.errors import InvalidTagRule, IoError, ParseError
from morphosim.mesh import Mesh, read_mesh, rectangle_mesh, write_mesh


class TestRectangleMesh:
    def test_unit_cell_counts_crossed(self):
        mesh = rectangle_mesh(1, 1, mode="crossed")
        assert mesh.num_cells == 4
        assert mesh.num_vertices == 5

    def test_unit_cell_counts_diagonal(self):
        mesh = rectangle_mesh(1, 1, mode="diagonal")
        assert mesh.num_cells == 2
        assert mesh.num_vertices == 4

    def test_all_dirichlet_rule(self):
        mesh = rectangle_mesh(3, 2, elastic_dirichlet="all")
        assert np.all(mesh.facet_elastic_dirichlet)

    def test_total_volume(self):
        mesh = rectangle_mesh(8, 8)
        assert abs(np.sum(mesh.cell_volumes()) - 1.0) <= 1e-12
        mesh = rectangle_mesh(5, 3, extent=((0.0, -1.0), (2.0, 1.0)),
                              mode="diagonal")
        assert abs(np.sum(mesh.cell_volumes()) - 4.0) <= 1e-12

    def test_positive_orientation(self):
        mesh = rectangle_mesh(4, 4)
        assert np.all(mesh.cell_volumes() > 0.0)

    def test_side_tags(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left",
                              nutrient_dirichlet="left,right")
        mids = 0.5 * (mesh.vertices[mesh.facets[:, 0]]
                      + mesh.vertices[mesh.facets[:, 1]])
        on_left = np.abs(mids[:, 0]) <= 1e-12
        on_right = np.abs(mids[:, 0] - 1.0) <= 1e-12
        assert np.array_equal(mesh.facet_elastic_dirichlet, on_left)
        assert np.array_equal(mesh.facet_nutrient_dirichlet,
                              on_left | on_right)

    def test_callable_rule(self):
        mesh = rectangle_mesh(
            4, 4, elastic_dirichlet=lambda mid: mid[:, 1] < 0.25)
        assert np.any(mesh.facet_elastic_dirichlet)
        assert not np.all(mesh.facet_elastic_dirichlet)

    def test_unknown_side(self):
        with pytest.raises(InvalidTagRule):
            rectangle_mesh(2, 2, elastic_dirichlet="north")

    def test_empty_elastic_dirichlet_rejected(self):
        with pytest.raises(InvalidTagRule):
            rectangle_mesh(2, 2, elastic_dirichlet="none")

    def test_normals_point_outward(self):
        mesh = rectangle_mesh(3, 3)
        mids = 0.5 * (mesh.vertices[mesh.facets[:, 0]]
                      + mesh.vertices[mesh.facets[:, 1]])
        normals = mesh.facet_normals()
        # outward on the unit square: n . (mid - center) > 0
        assert np.all(np.einsum("ki,ki->k", normals, mids - 0.5) > 0.0)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_dirichlet_nodes_include_corners(self):
        # a corner between Dirichlet and Neumann facets counts as Dirichlet
        mesh = rectangle_mesh(2, 2, elastic_dirichlet="left")
        nodes = mesh.elastic_dirichlet_nodes()
        corner = np.nonzero((np.abs(mesh.vertices[:, 0]) <= 1e-12)
                            & (np.abs(mesh.vertices[:, 1]) <= 1e-12))[0]
        assert corner[0] in nodes

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            rectangle_mesh(0, 2)


class TestMeshValidation:
    def test_negative_orientation_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cells = np.array([[0, 2, 1]])  # clockwise
        facets = np.array([[0, 1], [1, 2], [2, 0]])
        tags = np.ones(3, dtype=bool)
        with pytest.raises(ValueError):
            Mesh(vertices, cells, facets, tags, tags)

    def test_unused_vertex_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        cells = np.array([[0, 1, 3]])  # vertex 2 lies in no cell
        facets = np.array([[0, 1], [1, 3], [3, 0]])
        tags = np.ones(3, dtype=bool)
        with pytest.raises(ValueError, match="vertex 2 belongs to no cell"):
            Mesh(vertices, cells, facets, tags, tags)

    def test_facets_must_cover_boundary(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2]])
        facets = np.array([[0, 1], [1, 2]])  # one edge missing
        tags = np.ones(2, dtype=bool)
        with pytest.raises(InvalidTagRule):
            Mesh(vertices, cells, facets, tags, tags)

    # unit square split along its diagonal 0-2
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    SQUARE_CELLS = np.array([[0, 1, 2], [0, 2, 3]])
    SQUARE_FACETS = [[0, 1], [1, 2], [2, 3], [3, 0]]

    def square(self, facets, cells=None):
        tags = np.ones(len(facets), dtype=bool)
        return Mesh(self.SQUARE,
                    self.SQUARE_CELLS if cells is None else cells,
                    np.array(facets), tags, tags)

    def test_duplicate_facet_rejected(self):
        with pytest.raises(InvalidTagRule, match="duplicate boundary facet"):
            self.square(self.SQUARE_FACETS + [[2, 1]])

    def test_tagged_interior_edge_rejected(self):
        with pytest.raises(InvalidTagRule,
                           match=r"\(5 tagged, 4 boundary edges\)"):
            self.square(self.SQUARE_FACETS + [[0, 2]])

    def test_out_of_range_indices_rejected(self):
        # with 4 vertices, facet (0, 5) and edge (1, 1) would share a key
        with pytest.raises(InvalidTagRule, match="out of range"):
            self.square([[0, 5], [1, 2], [2, 3], [3, 0]])
        with pytest.raises(InvalidTagRule, match="out of range"):
            self.square([[-1, 1], [1, 2], [2, 3], [3, 0]])
        with pytest.raises(ValueError, match="out of range"):
            self.square(self.SQUARE_FACETS, cells=np.array([[0, 1, 2],
                                                            [-4, 2, 3]]))


class TestMeshFile:
    def test_round_trip_bit_exact(self, tmp_path):
        mesh = rectangle_mesh(3, 5, extent=((0.0, 0.0), (np.pi, 1.0 / 3.0)),
                              elastic_dirichlet="left,top",
                              nutrient_dirichlet="bottom")
        p1 = tmp_path / "a.mesh"
        p2 = tmp_path / "b.mesh"
        write_mesh(mesh, p1)
        again = read_mesh(p1)
        write_mesh(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(again.vertices, mesh.vertices)
        assert np.array_equal(again.cells, mesh.cells)
        assert np.array_equal(again.facet_elastic_dirichlet,
                              mesh.facet_elastic_dirichlet)
        assert np.array_equal(again.facet_nutrient_dirichlet,
                              mesh.facet_nutrient_dirichlet)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text("dim 3\n0\n")
        with pytest.raises(ParseError):
            read_mesh(p)

    def test_malformed_counts(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text("dim 2\n2\n0 0\n")
        with pytest.raises(ParseError):
            read_mesh(p)

    def test_unknown_tag(self, tmp_path):
        mesh = rectangle_mesh(1, 1, mode="diagonal")
        p = tmp_path / "m.mesh"
        write_mesh(mesh, p)
        text = p.read_text().replace("elastic_dirichlet", "elastic_weird", 1)
        p.write_text(text)
        with pytest.raises(ParseError):
            read_mesh(p)

    def test_missing_file(self):
        with pytest.raises(IoError):
            read_mesh("/nonexistent/path.mesh")


def boundary_edges_by_set(mesh):
    """Per-cell loop counting edge owners in a dict (reference)."""
    edges = {}
    for tri in mesh.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + 1
    return {e for e, count in edges.items() if count == 1}


def boundary_edges_by_keys(mesh):
    keys = mesh._boundary_edge_keys()
    n = mesh.num_vertices
    return {(int(k // n), int(k % n)) for k in keys}


def facet_cells_by_dict(mesh):
    """Per-cell loop with a dict of edge owners (reference)."""
    owner = {}
    for ci, tri in enumerate(mesh.cells):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            owner[(a, b) if a < b else (b, a)] = ci
    return np.array([owner[tuple(sorted(f))] for f in mesh.facets], dtype=int)


def facet_normals_by_loop(mesh):
    """Per-facet orientation loop (reference)."""
    p0 = mesh.vertices[mesh.facets[:, 0]]
    edge = mesh.vertices[mesh.facets[:, 1]] - p0
    n = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    n /= np.linalg.norm(n, axis=1)[:, None]
    cells = mesh.cells[facet_cells_by_dict(mesh)]
    for k in range(len(mesh.facets)):
        others = [v for v in cells[k] if v not in set(mesh.facets[k])]
        if np.dot(n[k], mesh.vertices[others[0]] - p0[k]) > 0.0:
            n[k] = -n[k]
    return n


def shuffled_copy(mesh, seed=0):
    """Same mesh with cells rotated and reordered and facets reversed and
    reordered, so owners and orientations are not in generator order."""
    rng = np.random.default_rng(seed)
    cells = np.roll(mesh.cells, 1, axis=1)[rng.permutation(mesh.num_cells)]
    order = rng.permutation(len(mesh.facets))
    return Mesh(mesh.vertices, cells, mesh.facets[order][:, ::-1],
                mesh.facet_elastic_dirichlet[order],
                mesh.facet_nutrient_dirichlet[order])


class TestVectorizedFacets:
    @pytest.mark.parametrize("mode", ["crossed", "diagonal"])
    def test_match_loop_reference(self, mode):
        base = rectangle_mesh(5, 3, mode=mode,
                              extent=((-1.0, 0.0), (2.0, 0.5)))
        for mesh in (base, shuffled_copy(base)):
            assert boundary_edges_by_keys(mesh) == boundary_edges_by_set(mesh)
            assert np.array_equal(mesh.facet_cells(),
                                  facet_cells_by_dict(mesh))
            assert np.array_equal(mesh.facet_normals(),
                                  facet_normals_by_loop(mesh))

    def test_match_loop_reference_after_file_round_trip(self, tmp_path):
        path = tmp_path / "m.mesh"
        write_mesh(shuffled_copy(rectangle_mesh(4, 4), seed=3), path)
        mesh = read_mesh(path)
        assert boundary_edges_by_keys(mesh) == boundary_edges_by_set(mesh)
        assert np.array_equal(mesh.facet_cells(), facet_cells_by_dict(mesh))
        assert np.array_equal(mesh.facet_normals(),
                              facet_normals_by_loop(mesh))

    def test_dirichlet_nodes_are_cached_read_only(self):
        mesh = rectangle_mesh(3, 3, elastic_dirichlet="left")
        nodes = mesh.elastic_dirichlet_nodes()
        assert nodes is mesh.elastic_dirichlet_nodes()
        assert np.array_equal(
            nodes, np.unique(mesh.facets[mesh.facet_elastic_dirichlet]))
        with pytest.raises(ValueError):
            nodes[0] = 0
