import collections
import inspect
import pathlib

import numpy as np
import pytest

from morphosim import coupled, elasticity, fem, mesh as mesh_module
from morphosim.elasticity import EquilibriumProblem, SolverOptions
from morphosim.errors import InvalidTagRule, IoError, ParseError
from morphosim.materials import DetRatioNutrientModel, PolarWellEnergy
from morphosim.mesh import Mesh, read_mesh, rectangle_mesh, write_mesh
from morphosim.nutrient import NutrientProblem, solve_nutrient
from morphosim.scenario import OutputConfig


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
        # a rule is a string; other tags are given to `Mesh` as arrays
        with pytest.raises(InvalidTagRule, match="must be a string"):
            rectangle_mesh(4, 4, elastic_dirichlet=lambda mid: mid[:, 1] < 0.25)

    @pytest.mark.parametrize("mode,corner", [
        ("crossed", (1.0, 1.0)), ("crossed", (2.0, 1.0)),
        ("crossed", (1.1, 1.0)), ("diagonal", (2.0, 1.0))],
        ids=["crossed_square", "crossed_2x1", "crossed_1.1x1", "diagonal"])
    def test_delaunay_flag_matches_the_laplacian(self, mode, corner):
        # Delaunay-type: no positive off-diagonal entry in the P1 Laplacian
        mesh = rectangle_mesh(8, 8, extent=((0.0, 0.0), corner), mode=mode)
        K = fem.assemble_scalar_operator(mesh, np.eye(2)).toarray()
        scale = np.max(np.abs(K))
        np.fill_diagonal(K, 0.0)
        assert fem.delaunay_like(mesh) == bool(np.max(K) <= 1e-12 * scale)

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


def rectangle_mesh_by_loops(nx, ny, extent, mode, elastic_dirichlet,
                            nutrient_dirichlet):
    """The generator's arrays built quad by quad and side by side, as
    `rectangle_mesh` did before its index arithmetic (reference)."""
    (x0, y0), (x1, y1) = extent
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def gid(i, j):
        return j * (nx + 1) + i

    cells = []
    if mode == "crossed":
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        ccx, ccy = np.meshgrid(cx, cy, indexing="xy")
        centers = np.stack([ccx.ravel(), ccy.ravel()], axis=1)
        vertices = np.vstack([grid, centers])
        off = len(grid)
        for j in range(ny):
            for i in range(nx):
                c = off + j * nx + i
                v00, v10 = gid(i, j), gid(i + 1, j)
                v11, v01 = gid(i + 1, j + 1), gid(i, j + 1)
                cells += [(v00, v10, c), (v10, v11, c),
                          (v11, v01, c), (v01, v00, c)]
    else:
        vertices = grid
        for j in range(ny):
            for i in range(nx):
                v00, v10 = gid(i, j), gid(i + 1, j)
                v11, v01 = gid(i + 1, j + 1), gid(i, j + 1)
                cells += [(v00, v10, v11), (v00, v11, v01)]

    facets = []
    for i in range(nx):
        facets.append((gid(i, 0), gid(i + 1, 0)))          # bottom
    for j in range(ny):
        facets.append((gid(nx, j), gid(nx, j + 1)))        # right
    for i in range(nx, 0, -1):
        facets.append((gid(i, ny), gid(i - 1, ny)))        # top
    for j in range(ny, 0, -1):
        facets.append((gid(0, j), gid(0, j - 1)))          # left
    facets = np.array(facets, dtype=int)

    mid = 0.5 * (vertices[facets[:, 0]] + vertices[facets[:, 1]])
    return {"vertices": np.asarray(vertices, dtype=float),
            "cells": np.array(cells, dtype=int), "facets": facets,
            "facet_elastic_dirichlet":
                mesh_module._side_rule(elastic_dirichlet, extent)(mid),
            "facet_nutrient_dirichlet":
                mesh_module._side_rule(nutrient_dirichlet, extent)(mid)}


class TestRectangleMeshByIndexArithmetic:
    @pytest.mark.parametrize("extent", [((0.0, 0.0), (1.0, 1.0)),
                                        ((-0.3, 2.0), (1.7, 2.5))],
                             ids=["unit", "shifted"])
    @pytest.mark.parametrize("mode", ["crossed", "diagonal"])
    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (5, 1), (7, 10),
                                       (16, 16), (64, 64)])
    def test_same_bytes_as_the_loops(self, nx, ny, mode, extent):
        mesh = rectangle_mesh(nx, ny, extent, mode, "left,top", "bottom")
        expected = rectangle_mesh_by_loops(nx, ny, extent, mode, "left,top",
                                           "bottom")
        for name, array in expected.items():
            actual = getattr(mesh, name)
            assert actual.dtype == array.dtype, name
            assert actual.shape == array.shape, name
            assert actual.tobytes() == array.tobytes(), name


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

    @pytest.mark.parametrize("cells", [
        np.array([[0, 1, 2, 3]]), np.array([0, 1, 2, 0, 2, 3]),
        np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 3.0]])],
        ids=["four_indices", "flat", "float"])
    def test_malformed_cell_array_rejected(self, cells):
        with pytest.raises(ValueError, match=r"\(m, 3\) integer array"):
            self.square(self.SQUARE_FACETS, cells=cells)

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

    def test_read_mesh_keeps_the_delaunay_flag(self, tmp_path):
        # the flag comes from the geometry, so a file carries it too
        path = tmp_path / "grid.mesh"
        write_mesh(rectangle_mesh(4, 4), path)
        assert fem.delaunay_like(read_mesh(path)) is True

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

    def test_cell_lines_of_four_indices_rejected(self, tmp_path):
        p = tmp_path / "quads.mesh"
        write_mesh(rectangle_mesh(2, 2, mode="diagonal"), p)
        lines = p.read_text().splitlines()
        start = 2 + int(lines[1])
        for k in range(start + 1, start + 1 + int(lines[start])):
            lines[k] += " 0"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"\(m, 3\) integer array"):
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


def delaunay_like_by_edges(mesh):
    """Whether no P1 Laplacian off-diagonal exceeds 1e-12 of the largest
    entry, from element matrices summed per vertex and per cell edge
    (reference)."""
    g = mesh.cell_gradients()
    Ke = mesh.cell_volumes()[:, None, None] * np.einsum("cAa,cBa->cAB", g, g)
    corner = [0, 1, 2]
    diagonal = np.bincount(mesh.cells.ravel(),
                           weights=Ke[:, corner, corner].ravel())
    # the cell edges 0-1, 1-2, 2-0, each summed over its cells
    _, edge = np.unique(mesh._cell_edge_keys(), return_inverse=True)
    off = np.bincount(edge, weights=Ke[:, corner, [1, 2, 0]].ravel())
    scale = max(np.max(np.abs(diagonal)), np.max(np.abs(off)))
    return bool(np.max(off) <= 1e-12 * scale)


def jittered_copy(mesh, seed, share):
    """Same mesh with each interior vertex moved by up to `share` of the
    smallest cell edge in each coordinate."""
    rng = np.random.default_rng(seed)
    edges = mesh.vertices[mesh.cells] - mesh.vertices[np.roll(mesh.cells, 1,
                                                                axis=1)]
    h = np.min(np.linalg.norm(edges, axis=-1))
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.facets.ravel()] = False
    vertices = mesh.vertices.copy()
    vertices[interior] += rng.uniform(-share * h, share * h,
                                      size=(np.sum(interior), 2))
    return Mesh(vertices, mesh.cells, mesh.facets,
                mesh.facet_elastic_dirichlet, mesh.facet_nutrient_dirichlet)


class TestDelaunayLike:
    def test_matches_the_edge_sum_reference(self):
        meshes = [rectangle_mesh(n, n, extent=((0.0, 0.0), corner),
                                 mode=mode)
                  for n in (1, 2, 5, 16)
                  for corner in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.5))
                  for mode in ("crossed", "diagonal")]
        # jitter of 8% leaves no mesh Delaunay-like; one of 1e-14 moves
        # the off-diagonals by rounding amounts, inside the tolerance
        meshes += [jittered_copy(rectangle_mesh(n, n, mode=mode), seed,
                                 share)
                   for seed, (n, mode, share) in enumerate(
                       (n, mode, share) for n in (3, 4, 6, 8, 12)
                       for mode in ("crossed", "diagonal")
                       for share in (0.08, 1e-14))]
        verdicts = [fem.delaunay_like(mesh) for mesh in meshes]
        assert verdicts == [delaunay_like_by_edges(mesh) for mesh in meshes]
        assert set(verdicts) == {True, False}

    def test_kept_and_built_only_for_a_dip(self, is_kept):
        # a nutrient solve that stays non-negative never asks for it
        mesh = rectangle_mesh(4, 4)
        growth = np.broadcast_to(np.eye(2), (mesh.num_vertices, 2, 2))
        solve_nutrient(NutrientProblem(
            mesh, DetRatioNutrientModel(d0=1.0, beta0=0.5), growth,
            mesh.vertices, dirichlet_data=lambda pts: np.ones(len(pts))))
        assert not is_kept(mesh, "delaunay_like")
        assert fem.delaunay_like(mesh) is fem.delaunay_like(mesh) is True
        assert is_kept(mesh, "delaunay_like")


def boundary_edges_by_set(mesh):
    """Per-cell loop counting edge owners in a dict (reference)."""
    edges = {}
    for tri in mesh.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + 1
    return {e for e, count in edges.items() if count == 1}


def boundary_edges_by_keys(mesh):
    keys, _, counts = mesh.edge_table()
    keys = keys[counts == 1]
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


def _moving_data(pts):
    """Positions that move the vertices of the left and bottom sides."""
    return pts + 0.02 * np.sin(np.pi * pts[:, ::-1])


GEOMETRY = ("cell_volumes", "cell_gradients", "quad_points", "quad_weights",
            "facet_cells", "facet_normals", "elastic_dirichlet_nodes",
            "nutrient_dirichlet_nodes")
OWN_ARRAYS = ("vertices", "cells", "facets", "facet_elastic_dirichlet",
              "facet_nutrient_dirichlet")
SYSTEM_ARRAYS = ("edofs", "fixed", "free", "order", "indptr", "indices")
GATHER_ARRAYS = ("gather", "indices", "indptr")


def still_state(mesh, t=0.0):
    """A snapshot at rest on `mesh`."""
    n = mesh.num_vertices
    return coupled.SystemState(
        t=t, growth=np.broadcast_to(np.eye(2), (n, 2, 2)),
        displacement=np.zeros((n, 2)), lifted=mesh.vertices,
        nutrient=np.ones(n), stress_nodes=np.zeros(n))


def run_mesh_tier(mesh):
    """A lift with moving data, a Newton solve on it and a nutrient solve
    on the result, each touching the mesh tier."""
    elasticity.lift_dirichlet(mesh, _moving_data)
    growth = np.broadcast_to(np.eye(2), (mesh.num_vertices, 2, 2))
    solution = elasticity.solve_newton(EquilibriumProblem(
        mesh, PolarWellEnergy(), growth, _moving_data,
        options=SolverOptions(method="newton")))
    solve_nutrient(NutrientProblem(
        mesh, DetRatioNutrientModel(d0=1.0, beta0=0.5), growth,
        solution.deformation, dirichlet_data=lambda pts: np.ones(len(pts))))
    fem.nodal_from_cells(mesh, np.ones(mesh.num_cells))


def mesh_tier_arrays(mesh):
    """Every array of the mesh and of each value its tier keeps, by name."""
    arrays = {name: getattr(mesh, name) for name in OWN_ARRAYS}
    arrays.update((name, getattr(mesh, name)()) for name in GEOMETRY)
    arrays.update(zip(("edge keys", "edge first", "edge counts"),
                      mesh.edge_table()))
    N, arrays["N 1"] = fem._transfer(mesh, "averaging")
    operators = {"B": fem._transfer(mesh, "gradient"),
                 "S": fem._transfer(mesh, "sampling"), "N": N}
    elastic = mesh.elastic_dirichlet_nodes()
    for components, nodes, label in ((1, elastic, "lift"),
                                     (2, elastic, "elastic"),
                                     (1, mesh.nutrient_dirichlet_nodes(),
                                      "nutrient")):
        system = fem.dirichlet_system(mesh, components, nodes)
        arrays.update(("%s system %s" % (label, name), getattr(system, name))
                      for name in SYSTEM_ARRAYS)
        for block, (_, *parts, _) in zip(("K_ff", "K_fc"), system._blocks):
            arrays.update(("%s %s %s" % (label, block, name), part)
                          for name, part in zip(GATHER_ARRAYS, parts))
        # the kept order once factorized, and its gather once built
        if system._perm is not None:
            arrays["%s kept order" % label] = system._perm
        if "_plan" in vars(system):
            _, (_, *parts, _) = system._plan
            arrays.update(("%s kept K_ff %s" % (label, name), part)
                          for name, part in zip(GATHER_ARRAYS, parts))
        # a returned K_ff shares its index arrays with the kept gather
        Kff = system.ff(system.assemble(np.ones(system.order.shape)))
        arrays.update(("%s returned K_ff.%s" % (label, name),
                       getattr(Kff, name)) for name in ("indices", "indptr"))
    _, operators["K_fc"] = elasticity._lift_factor(
        mesh, fem.dirichlet_system(mesh, 1, elastic))
    for label, op in operators.items():
        arrays.update(("%s.%s" % (label, name), getattr(op, name))
                      for name in ("data", "indices", "indptr"))
    arrays["f_tilde"], arrays["grad f_tilde"] = elasticity.lift_dirichlet(
        mesh, _moving_data)
    return arrays


class TestMeshTier:
    """`Mesh.cached` builds every value that depends on the mesh alone
    once, and makes it read-only."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the builds `Mesh.cached` runs, per key."""
        counts = collections.Counter()
        cached = Mesh.cached

        def counting(mesh, key, build, valid=None):
            def counted():
                counts[key] += 1
                return build()
            return cached(mesh, key, counted, valid)
        monkeypatch.setattr(Mesh, "cached", counting)
        return counts

    def test_every_value_is_built_once(self, builds):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left,bottom",
                              nutrient_dirichlet="right")
        for _ in range(2):
            run_mesh_tier(mesh)
            mesh_tier_arrays(mesh)
            assert fem.delaunay_like(mesh) in (True, False)
            coupled._vtk_text(mesh, still_state(mesh))
        assert set(GEOMETRY) | {("transfer", kind) for kind in (
            "gradient", "sampling", "averaging")} | {
            "edge_table", "delaunay_like", "vtk_mesh_block", "lift_factor",
            "last_lift"} < set(builds)
        assert sum(isinstance(key, tuple) and key[0] == "dirichlet_system"
                   for key in builds) == 3
        assert set(builds.values()) == {1}

    def test_two_outputs_build_the_vtk_block_once(self, builds, tmp_path):
        # two snapshots and the failure snapshot, written twice
        mesh = rectangle_mesh(2, 2)
        trajectory = coupled.Trajectory(
            states=[still_state(mesh, t) for t in (0.0, 0.1)],
            status="solver_failure", error="stopped")
        files = []
        for run in ("a", "b"):
            paths = coupled.write_outputs(trajectory, mesh, OutputConfig(
                directory=str(tmp_path / run)))
            files.append([pathlib.Path(path).read_text() for path in paths])
        assert builds["vtk_mesh_block"] == 1
        assert files[0] == files[1] and len(files[0]) == 5
        assert list(inspect.signature(coupled._vtk_text).parameters) == [
            "mesh", "state"]

    def test_every_value_is_read_only(self):
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left,bottom",
                              nutrient_dirichlet="right")
        run_mesh_tier(mesh)
        arrays = mesh_tier_arrays(mesh)
        # the Newton solve factorized its system more than once
        assert "elastic kept K_ff gather" in arrays
        for name, array in arrays.items():
            assert array.size and not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array

    def test_kept_order_is_built_once(self):
        # a system keeps its column order at its first factorization and
        # builds the gather in that order at its second, never again; the
        # lift factorizes once and builds none
        mesh = rectangle_mesh(4, 4, elastic_dirichlet="left,bottom",
                              nutrient_dirichlet="right")
        elastic = mesh.elastic_dirichlet_nodes()
        systems = {label: fem.dirichlet_system(mesh, components, nodes)
                   for label, components, nodes in (
                       ("lift", 1, elastic), ("elastic", 2, elastic),
                       ("nutrient", 1, mesh.nutrient_dirichlet_nodes()))}
        run_mesh_tier(mesh)
        run_mesh_tier(mesh)
        lift = systems.pop("lift")
        assert lift._perm is not None and "_plan" not in vars(lift)
        plans = {label: vars(system)["_plan"]
                 for label, system in systems.items()}
        run_mesh_tier(mesh)
        for label, system in systems.items():
            assert vars(system)["_plan"] is plans[label], label
            assert plans[label][0] is system._perm, label

    def test_moving_a_vertex_in_place_is_refused(self):
        mesh = rectangle_mesh(3, 3)
        gradients = mesh.cell_gradients().copy()
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[4] += 0.1
        assert mesh.cell_gradients().tobytes() == gradients.tobytes()

    def test_inputs_stay_writable(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2], [0, 2, 3]])
        facets = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        elastic = np.ones(4, dtype=bool)
        nutrient = np.ones(4, dtype=bool)
        mesh = Mesh(vertices, cells, facets, elastic, nutrient)
        for array in (vertices, cells, facets, elastic, nutrient):
            assert array.flags.writeable
        vertices[2] = 2.0
        assert mesh.vertices[2].tolist() == [1.0, 1.0]

    def test_build_that_raises_keeps_and_replaces_nothing(self):
        mesh = rectangle_mesh(2, 2)

        def failing():
            raise RuntimeError("build failed")
        with pytest.raises(RuntimeError):
            mesh.cached("probe", failing)
        value = mesh.cached("probe", lambda: np.zeros(3))
        with pytest.raises(RuntimeError):
            mesh.cached("probe", failing, valid=lambda kept: False)
        assert mesh.cached("probe", failing) is value
        replaced = mesh.cached("probe", lambda: np.ones(3),
                               valid=lambda kept: False)
        assert replaced is not value and not replaced.flags.writeable
