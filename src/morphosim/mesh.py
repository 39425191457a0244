"""Simplicial meshes with tagged boundary parts, plus a structured
rectangle generator and an ASCII mesh file format.

A mesh is two-dimensional (triangles).  Every boundary facet carries one
elastic tag and one nutrient tag, each either Dirichlet or Neumann, so the
two tag families partition the boundary by construction.  Vertices where a
Dirichlet facet meets a Neumann facet count as Dirichlet (strong
imposition wins the tie).
"""

import numpy as np

from .errors import InvalidTagRule, IoError, ParseError

# interior 3-point rule, exact for quadratics; barycentric coordinates
TRI_POINTS = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])
TRI_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

# 2-point Gauss rule on an edge, parameters in (0, 1)
EDGE_POINTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_WEIGHTS = np.array([0.5, 0.5])

SIDES = ("left", "right", "bottom", "top")


class Mesh:
    """Triangle mesh with per-facet boundary tags.

    Parameters
    ----------
    vertices : (n, 2) float array
    cells : (m, 3) int array
        Positively oriented vertex triples; every vertex belongs to one.
    facets : (k, 2) int array
        Boundary edges; must cover the topological boundary exactly once.
    elastic_dirichlet, nutrient_dirichlet : (k,) bool arrays
        Tag per facet (False means the corresponding Neumann part).
    delaunay_like : bool
        Whether the discrete maximum principle may be asserted.
    """

    def __init__(self, vertices, cells, facets, elastic_dirichlet,
                 nutrient_dirichlet, delaunay_like=False):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        self.facets = np.asarray(facets, dtype=int).reshape(-1, 2)
        self.facet_elastic_dirichlet = np.asarray(elastic_dirichlet, dtype=bool)
        self.facet_nutrient_dirichlet = np.asarray(nutrient_dirichlet, dtype=bool)
        self.delaunay_like = bool(delaunay_like)
        self._cache = {}
        self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("non-finite vertex coordinates")
        if not self._in_range(self.cells):
            raise ValueError("cell vertex index out of range")
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.cells.ravel()] = True
        if not np.all(used):
            raise ValueError("vertex %d belongs to no cell"
                             % int(np.argmin(used)))
        if np.any(self.cell_volumes() <= 0.0):
            raise ValueError("all cells must be positively oriented")
        if (len(self.facet_elastic_dirichlet) != len(self.facets)
                or len(self.facet_nutrient_dirichlet) != len(self.facets)):
            raise ValueError("one elastic and one nutrient tag per facet required")
        if not self._in_range(self.facets):
            raise InvalidTagRule("facet vertex index out of range")
        boundary = self._boundary_edge_keys()
        tagged = np.unique(self._edge_keys(self.facets))
        if not np.array_equal(tagged, boundary):
            raise InvalidTagRule(
                "facets do not partition the boundary "
                "(%d tagged, %d boundary edges)" % (len(tagged), len(boundary)))
        if len(tagged) != len(self.facets):
            raise InvalidTagRule("duplicate boundary facet")

    def _in_range(self, indices):
        return indices.size == 0 or (indices.min() >= 0
                                     and indices.max() < self.num_vertices)

    def _edge_keys(self, pairs):
        """One integer per undirected edge; distinct for distinct edges
        because every vertex index lies in [0, num_vertices)."""
        pairs = np.sort(pairs, axis=1).astype(np.int64)
        return pairs[:, 0] * self.num_vertices + pairs[:, 1]

    def _cell_edge_keys(self):
        """Keys of the cell edges in cell order (0-1, 1-2, 2-0 per cell)."""
        return self._edge_keys(self.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2))

    def _boundary_edge_keys(self):
        """Sorted keys of the edges that belong to exactly one cell."""
        keys, counts = np.unique(self._cell_edge_keys(), return_counts=True)
        return keys[counts == 1]

    # -- geometry (cached; the mesh is immutable after construction) --------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_volumes(self):
        """Signed areas (positive for valid meshes)."""
        if "volumes" not in self._cache:
            a = self.vertices[self.cells[:, 0]]
            b = self.vertices[self.cells[:, 1]]
            c = self.vertices[self.cells[:, 2]]
            e1 = b - a
            e2 = c - a
            self._cache["volumes"] = 0.5 * (e1[:, 0] * e2[:, 1]
                                            - e1[:, 1] * e2[:, 0])
        return self._cache["volumes"]

    def cell_gradients(self):
        """Gradients of the three nodal hat functions per cell, (m, 3, 2)."""
        if "gradients" not in self._cache:
            a = self.vertices[self.cells[:, 0]]
            b = self.vertices[self.cells[:, 1]]
            c = self.vertices[self.cells[:, 2]]
            J = np.stack([b - a, c - a], axis=-1)  # columns are edge vectors
            Jinv = np.linalg.inv(J)
            g = np.empty((self.num_cells, 3, 2))
            g[:, 1, :] = Jinv[:, 0, :]
            g[:, 2, :] = Jinv[:, 1, :]
            g[:, 0, :] = -g[:, 1, :] - g[:, 2, :]
            self._cache["gradients"] = g
        return self._cache["gradients"]

    def quad_points(self):
        """Volume quadrature points, (m, nq, 2)."""
        if "qpoints" not in self._cache:
            coords = self.vertices[self.cells]  # (m, 3, 2)
            self._cache["qpoints"] = np.einsum("qA,cAx->cqx", TRI_POINTS, coords)
        return self._cache["qpoints"]

    def quad_weights(self):
        """Volume quadrature weights, (m, nq)."""
        if "qweights" not in self._cache:
            self._cache["qweights"] = np.outer(self.cell_volumes(), TRI_WEIGHTS)
        return self._cache["qweights"]

    def facet_cells(self):
        """Index of the unique cell adjacent to each boundary facet."""
        if "facet_cells" not in self._cache:
            # validation made every facet a boundary edge, which has
            # exactly one owner; edge k of the cell edges lies on cell k // 3
            edge_keys = self._cell_edge_keys()
            order = np.argsort(edge_keys)
            pos = np.searchsorted(edge_keys[order], self._edge_keys(self.facets))
            self._cache["facet_cells"] = order[pos] // 3
        return self._cache["facet_cells"]

    def facet_normals(self):
        """Outward unit normals per boundary facet, (k, 2)."""
        if "normals" not in self._cache:
            p0 = self.vertices[self.facets[:, 0]]
            p1 = self.vertices[self.facets[:, 1]]
            edge = p1 - p0
            n = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
            n /= np.linalg.norm(n, axis=1)[:, None]
            # orient away from the opposite vertex of the adjacent cell
            cells = self.cells[self.facet_cells()]
            off_facet = ((cells != self.facets[:, :1])
                         & (cells != self.facets[:, 1:]))
            opposite = cells[np.arange(len(cells)), np.argmax(off_facet, axis=1)]
            inward = self.vertices[opposite] - p0
            flip = n[:, 0] * inward[:, 0] + n[:, 1] * inward[:, 1] > 0.0
            n[flip] = -n[flip]
            self._cache["normals"] = n
        return self._cache["normals"]

    def _nodes_of(self, key, facet_mask):
        """Sorted vertices of the masked facets, cached read-only."""
        if key not in self._cache:
            if np.any(facet_mask):
                nodes = np.unique(self.facets[facet_mask].ravel())
            else:
                nodes = np.array([], dtype=int)
            nodes.flags.writeable = False
            self._cache[key] = nodes
        return self._cache[key]

    def elastic_dirichlet_nodes(self):
        return self._nodes_of("elastic_nodes", self.facet_elastic_dirichlet)

    def nutrient_dirichlet_nodes(self):
        return self._nodes_of("nutrient_nodes", self.facet_nutrient_dirichlet)


# ---------------------------------------------------------------------------
# structured rectangle generator


def _side_rule(spec, extent):
    """Turn a side specification into a midpoint classifier.

    `spec` is 'all', 'none', a comma list of sides ('left,top'), or a
    callable mapping facet midpoints (k, 2) to a boolean array.
    """
    if callable(spec):
        return spec
    if not isinstance(spec, str):
        raise InvalidTagRule("tag rule must be a string or callable")
    text = spec.strip().lower()
    if text == "all":
        return lambda mid: np.ones(len(mid), dtype=bool)
    if text == "none":
        return lambda mid: np.zeros(len(mid), dtype=bool)
    sides = [s.strip() for s in text.split(",") if s.strip()]
    for s in sides:
        if s not in SIDES:
            raise InvalidTagRule("unknown boundary side %r" % (s,))
    (x0, y0), (x1, y1) = extent

    def rule(mid):
        tol = 1e-12 * max(x1 - x0, y1 - y0)
        out = np.zeros(len(mid), dtype=bool)
        if "left" in sides:
            out |= np.abs(mid[:, 0] - x0) <= tol
        if "right" in sides:
            out |= np.abs(mid[:, 0] - x1) <= tol
        if "bottom" in sides:
            out |= np.abs(mid[:, 1] - y0) <= tol
        if "top" in sides:
            out |= np.abs(mid[:, 1] - y1) <= tol
        return out

    return rule


def rectangle_mesh(nx, ny, extent=((0.0, 0.0), (1.0, 1.0)), mode="crossed",
                   elastic_dirichlet="all", nutrient_dirichlet="all"):
    """Structured triangulation of an axis-aligned box.

    `mode='crossed'` splits each of the nx*ny quads into four triangles
    around its center (4 nx ny cells); `mode='diagonal'` into two.  Both
    variants consist of right triangles, so the mesh is Delaunay-type and
    the scalar solver's discrete maximum principle applies.

    Boundary tags come from the two classifiers (see `_side_rule`); the
    elastic Dirichlet part must be non-empty.

    Raises
    ------
    InvalidTagRule
        Unknown side names, malformed classifier output, or an empty
        elastic Dirichlet set.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    (x0, y0), (x1, y1) = extent
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate extent")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)  # row-major in y

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
    elif mode == "diagonal":
        vertices = grid
        for j in range(ny):
            for i in range(nx):
                v00, v10 = gid(i, j), gid(i + 1, j)
                v11, v01 = gid(i + 1, j + 1), gid(i, j + 1)
                cells += [(v00, v10, v11), (v00, v11, v01)]
    else:
        raise ValueError("mode must be 'crossed' or 'diagonal'")

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
    e_rule = _side_rule(elastic_dirichlet, extent)
    n_rule = _side_rule(nutrient_dirichlet, extent)
    e_tags = np.asarray(e_rule(mid), dtype=bool)
    n_tags = np.asarray(n_rule(mid), dtype=bool)
    if e_tags.shape != (len(facets),) or n_tags.shape != (len(facets),):
        raise InvalidTagRule("tag rule returned the wrong number of tags")
    if not np.any(e_tags):
        raise InvalidTagRule("elastic Dirichlet boundary part must be non-empty")
    return Mesh(np.asarray(vertices, dtype=float), np.array(cells, dtype=int),
                facets, e_tags, n_tags, delaunay_like=True)


# ---------------------------------------------------------------------------
# ASCII mesh file format
#
#   dim 2
#   <vertex count>
#   x y                  (one line per vertex, 17 significant digits)
#   <cell count>
#   i j k                (0-based vertex indices)
#   <facet count>
#   i j elastic_tag nutrient_tag


_TAGS = {"elastic_dirichlet": True, "elastic_neumann": False}
_NTAGS = {"nutrient_dirichlet": True, "nutrient_neumann": False}


def write_mesh(mesh, path):
    """Write the ASCII mesh format; coordinates keep 17 significant digits
    so that write -> read -> write round-trips bit-exactly."""
    lines = ["dim 2", str(mesh.num_vertices)]
    for v in mesh.vertices:
        lines.append("%.17g %.17g" % (v[0], v[1]))
    lines.append(str(mesh.num_cells))
    for c in mesh.cells:
        lines.append("%d %d %d" % (c[0], c[1], c[2]))
    lines.append(str(len(mesh.facets)))
    for f, ed, nd in zip(mesh.facets, mesh.facet_elastic_dirichlet,
                         mesh.facet_nutrient_dirichlet):
        lines.append("%d %d %s %s" % (
            f[0], f[1],
            "elastic_dirichlet" if ed else "elastic_neumann",
            "nutrient_dirichlet" if nd else "nutrient_neumann"))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError("cannot write mesh file %s: %s" % (path, exc))


def read_mesh(path, delaunay_like=False):
    """Read the ASCII mesh format written by `write_mesh`."""
    try:
        with open(path) as fh:
            tokens = fh.read().split("\n")
    except OSError as exc:
        raise IoError("cannot read mesh file %s: %s" % (path, exc))
    lines = [ln.strip() for ln in tokens if ln.strip()]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("%s: unexpected end of mesh file" % path)
        ln = lines[pos]
        pos += 1
        return ln

    header = take().split()
    if header[:1] != ["dim"] or len(header) != 2 or header[1] != "2":
        raise ParseError("%s: expected header 'dim 2'" % path)
    try:
        nv = int(take())
        vertices = np.array([[float(t) for t in take().split()] for _ in range(nv)])
        nc = int(take())
        cells = np.array([[int(t) for t in take().split()] for _ in range(nc)],
                         dtype=int)
        nf = int(take())
        facets, etags, ntags = [], [], []
        for _ in range(nf):
            parts = take().split()
            if len(parts) != 4:
                raise ParseError("%s: malformed facet line %r" % (path, parts))
            facets.append((int(parts[0]), int(parts[1])))
            if parts[2] not in _TAGS or parts[3] not in _NTAGS:
                raise ParseError("%s: unknown boundary tag in %r" % (path, parts))
            etags.append(_TAGS[parts[2]])
            ntags.append(_NTAGS[parts[3]])
    except (ValueError, IndexError) as exc:
        raise ParseError("%s: malformed mesh file (%s)" % (path, exc))
    return Mesh(vertices, cells, np.array(facets, dtype=int),
                np.array(etags, dtype=bool), np.array(ntags, dtype=bool),
                delaunay_like=delaunay_like)
