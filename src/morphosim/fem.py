"""First-order finite elements on triangle meshes: assembly of scalar and
vector elliptic operators, Dirichlet systems, and gradient transfer.

Degrees of freedom: scalar problems use one dof per vertex; vector
problems interleave components, ``dof = 2 * vertex + component``.  The
mesh keeps one `DirichletSystem` per dof layout and set of Dirichlet
vertices (`dirichlet_system`).  It sums the assemblers' unconstrained
operators bit for bit as a COO scatter does, and imposes strong
Dirichlet values by row/column elimination with a symmetric
right-hand-side correction, so the reduced operator stays symmetric
positive definite, as the pivot check of its LU verifies.  Its first
factorization orders K_ff by MMD_AT_PLUS_A and keeps that column order;
every later one factorizes K_ff gathered in the kept order, with no new
ordering and the same factor bit for bit, and Newton's conjugate
gradients multiply by that same gather.

Gradient transfer is one sparse product with an operator the mesh keeps,
built on first use: B maps nodal values to per-cell gradients, S samples
a nodal growth field at the quadrature points, and N sums volume-weighted
cell values at the vertices.  Each is laid out in corner order and never
sorted or summed, so scipy's `csr_matvec`/`csr_matvecs` add each row from
a zero start in stored order: the einsum and bincount sums they replace,
bit for bit.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import tensor
from .errors import (AssemblyError, EllipticityViolation, NoConvergence,
                     SingularSystem)
from .mesh import EDGE_POINTS, EDGE_WEIGHTS, TRI_POINTS


# ---------------------------------------------------------------------------
# Dirichlet systems


def eliminate(K, fixed):
    """Split the CSR operator K at the `fixed` dofs by sparse slicing:
    returns ``(K_ff as CSC, the free rows K_f, the free index)``.  A
    `DirichletSystem` finds its gathers with it and gives the same blocks."""
    mask = np.ones(K.shape[0], dtype=bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    Kf = K[free]
    return Kf[:, free].tocsc(), Kf, free


def _factorize_spd(Kcsc, permc_spec="MMD_AT_PLUS_A"):
    """LU of a (presumed) SPD matrix with symmetric pivoting disabled, so
    the U diagonal exposes the pivot signs."""
    try:
        lu = spla.splu(Kcsc, permc_spec=permc_spec,
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem("sparse factorization failed: %s" % exc)
    pivots = lu.U.diagonal()
    pmax = float(np.max(np.abs(pivots))) if len(pivots) else 1.0
    if np.any(pivots <= 0.0) or (len(pivots) and
                                 float(np.min(np.abs(pivots))) <= 1e-13 * pmax):
        raise SingularSystem("non-positive or vanishing pivot "
                             "(matrix not SPD on free dofs)")
    return lu


class _KeptOrderFactor:
    """The factor of K_ff given by the factor `lu` of its permuted copy
    P K_ff P^T (`DirichletSystem.factor`): `solve` permutes the
    right-hand side in and the solution out, and `U` has the pivots."""

    def __init__(self, lu, perm):
        self._lu, self._perm = lu, perm

    U = property(lambda self: self._lu.U)

    def solve(self, rhs):
        permuted = np.empty_like(rhs)
        permuted[self._perm] = rhs
        return self._lu.solve(permuted)[self._perm]


def _coo(n_dofs, edofs, Ke):
    nloc = edofs.shape[1]
    rows = np.repeat(edofs, nloc, axis=1).ravel()
    cols = np.tile(edofs, (1, nloc)).ravel()
    return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n_dofs, n_dofs))


def _summed(data, indices, indptr, shape):
    """CSR operator of terms already in sorted row order, each run of
    duplicates added by `sum_duplicates`."""
    K = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)
    K.has_sorted_indices = True
    K.sum_duplicates()
    return K


def _shared(blocks):
    """`blocks` of gathers, each one's arrays made read-only: the
    operators it returns share its index arrays."""
    for block in blocks:
        for array in block[1:4]:
            array.flags.writeable = False
    return blocks


def _scatter(n_dofs, edofs, Ke):
    """CSR operator of the element matrices Ke by COO scatter: the sum
    that `DirichletSystem.assemble` reproduces."""
    return _coo(n_dofs, edofs, Ke).tocsr()


class DirichletSystem:
    """Assembly and solves on `n_dofs` dofs with element dofs `edofs`
    (cells, nloc) and Dirichlet dofs `fixed`; `free` lists the others.

    scipy's COO-to-CSR conversion places the element terms row by row,
    sorts each row with `sort_indices` and adds each run of duplicates
    with `sum_duplicates`.  The first `assemble` pushes term ids through
    the first two calls and keeps the permutation they apply, `order`,
    and the sorted pattern; `assemble` lays the terms out in that order
    and leaves every addition to `sum_duplicates`.  K_ff and K_fc are
    gathers from an operator's data, found at the first `ff` or `fc` by
    pushing entry positions through `eliminate`.

    The first `factor` orders K_ff by MMD_AT_PLUS_A and keeps only the
    column order `perm_c`; the second builds `_plan`, K_ff's gather in
    that order, and it and every later one factorize that permuted K_ff
    by NATURAL.  SuperLU's depth-first search visits each column's rows
    in stored order, so the plan renames rows but never sorts them: the
    factor, and every solve, equal a fresh MMD factorization's bit for
    bit.  The lift, the equilibrium sweeps and `solve` factorize through
    the plan.  `kept_ff` gathers K_ff in the kept order for `factor_kept`
    and for `kept_product`, the product that Newton's conjugate gradients
    take, so a system whose `ff` nobody asks for (the elastic one) keeps
    one K_ff gather.  Every array is read-only once the mesh keeps the
    system (`dirichlet_system`), the sort, the gathers and the plan,
    built later, included.
    """

    def __init__(self, n_dofs, edofs, fixed):
        mask = np.ones(n_dofs, dtype=bool)
        mask[fixed] = False
        self.n_dofs, self.edofs, self.fixed = n_dofs, edofs, fixed
        self.free = np.nonzero(mask)[0]
        self._perm = None    # K_ff's column order, kept at the first factor

    @functools.cached_property
    def _sort(self):
        """(order, sorted terms (indices, indptr, shape), indptr, indices)"""
        coo = _coo(self.n_dofs, self.edofs, np.arange(
            self.edofs.size * self.edofs.shape[1], dtype=float))
        coo.has_canonical_format = True    # convert without summing
        ordered = coo.tocsr()
        del coo
        ordered.sort_indices()             # the order the sum sees
        terms = (ordered.indices, ordered.indptr, ordered.shape)
        zero = _summed(np.zeros(ordered.nnz), *terms)
        sort = (ordered.data.astype(np.intp), terms, zero.indptr, zero.indices)
        for shared in sort[:1] + terms[:2] + sort[2:]:
            shared.flags.writeable = False
        return sort

    order = property(lambda self: self._sort[0])
    indptr = property(lambda self: self._sort[2])
    indices = property(lambda self: self._sort[3])

    def _gathers(self):
        """The K_ff and K_fc gathers ``(kind, gather, indices, indptr,
        shape)``, found by pushing entry positions through `eliminate`."""
        positions = sp.csr_matrix(
            (np.arange(len(self.indices), dtype=float), self.indices,
             self.indptr), shape=self._sort[1][2])
        Kff, Kf, _ = eliminate(positions, self.fixed)
        return [(type(b), b.data.astype(np.intp), b.indices, b.indptr,
                 b.shape) for b in (Kff, Kf[:, self.fixed])]

    @functools.cached_property
    def _blocks(self):
        return _shared(self._gathers())

    @functools.cached_property
    def _plan(self):
        """``(perm, the K_ff gather in the kept order)``: column j of the
        permuted K_ff is K_ff's column ``argsort(perm)[j]``, its rows
        renamed through perm and left in their stored order."""
        perm = self._perm
        kind, gather, indices, indptr, shape = self._gathers()[0]
        columns = np.argsort(perm)
        counts = np.diff(indptr)[columns]
        kept_indptr = np.zeros_like(indptr)
        np.cumsum(counts, out=kept_indptr[1:])
        entries = (np.repeat(indptr[columns] - kept_indptr[:-1], counts)
                   + np.arange(kept_indptr[-1]))
        block = (kind, gather[entries], perm[indices[entries]], kept_indptr,
                 shape)
        return perm, _shared([block])[0]

    def assemble(self, Ke):
        """CSR operator of the element matrices Ke (cells, nloc, nloc),
        equal to `_scatter` bit for bit."""
        order, terms = self._sort[:2]
        return _summed(Ke.ravel()[order], *terms)

    def ff(self, K):
        """K_ff of the CSR operator K, as CSC."""
        return self._block(self._blocks[0], K)

    def fc(self, K):
        """K_fc of the CSR operator K, as CSR."""
        return self._block(self._blocks[1], K)

    def _block(self, block, K):
        if not (np.array_equal(K.indptr, self.indptr) and
                np.array_equal(K.indices, self.indices)):
            raise ValueError("operator pattern differs from the system's")
        kind, gather, indices, indptr, shape = block
        return kind((K.data[gather], indices, indptr), shape=shape)

    def factor(self, K):
        """Pivot-checked sparse LU of K_ff (SingularSystem unless SPD), by
        MMD_AT_PLUS_A the first time and in the kept order after."""
        if self._perm is None:
            lu = _factorize_spd(self._block(self._gathers()[0], K))
            perm = lu.perm_c.copy()
            perm.flags.writeable = False
            self._perm = perm
            return lu
        return self.factor_kept(self.kept_ff(K))

    def kept_ff(self, K):
        """K_ff of the CSR operator K gathered in the kept order (CSC),
        for `factor_kept` and `kept_product`; needs a first `factor`."""
        Kff = self._block(self._plan[1], K)
        # flagged canonical, so that `splu` leaves the rows in stored
        # order, the order SuperLU's search visits them in
        Kff.has_canonical_format = True
        return Kff

    def factor_kept(self, Kff):
        """`factor` of the `kept_ff` gather Kff."""
        return _KeptOrderFactor(_factorize_spd(Kff, "NATURAL"), self._perm)

    def kept_product(self, Kff, v):
        """K_ff v for the `kept_ff` gather Kff and v on the free dofs in
        their original order: v is permuted in and the product out."""
        permuted = np.empty_like(v)
        permuted[self._perm] = v
        return (Kff @ permuted)[self._perm]

    def solve(self, K, rhs, values):
        """Solve ``K x = rhs`` with ``x[fixed] = values`` by elimination
        and sparse direct factorization.  Returns x and the residual norm
        ``|K_ff x_f - b_f|`` (0.0 without free dofs), verified to be at
        most ``1e-12 * |b_f|`` or ``1e-11 * max(1, |x_f|)``.  Raises
        AssemblyError on a non-finite reduced load, SingularSystem on a
        non-positive or vanishing pivot, and NoConvergence when the
        residual check fails."""
        Kff = self.ff(K)
        bf = rhs[self.free]
        # K_fc u_c is exactly zero for finite K when every value is zero,
        # and b_f - 0 is b_f bit for bit
        if np.any(values != 0.0):
            bf = bf - self.fc(K) @ values
        x = np.zeros(K.shape[0])
        resid = 0.0
        if len(self.free):
            if not np.all(np.isfinite(bf)):
                raise AssemblyError("non-finite right-hand side")
            x_free = self.factor(K).solve(bf)
            resid = tensor.norm(Kff @ x_free - bf)
            if (resid > 1e-12 * max(tensor.norm(bf), 1e-300) and
                    resid > 1e-11 * max(1.0, tensor.norm(x_free))):
                raise NoConvergence("linear solve residual %.3e exceeds "
                                    "tolerance" % resid)
            x[self.free] = x_free
        x[self.fixed] = values
        return x, resid


def dirichlet_system(mesh, components, nodes):
    """The mesh's `DirichletSystem` for `components` interleaved dofs per
    vertex and the Dirichlet vertices `nodes`, built on first use and kept
    by the mesh; each system records its own sort."""
    def build():
        edofs = components * mesh.cells[:, :, None] + np.arange(components)
        fixed = components * np.asarray(nodes)[:, None] + np.arange(components)
        return DirichletSystem(
            components * mesh.num_vertices, edofs.reshape(mesh.num_cells, -1),
            fixed.ravel())
    key = ("dirichlet_system", components, np.asarray(nodes).tobytes())
    return mesh.cached(key, build)


# ---------------------------------------------------------------------------
# assembly


def _as_quad_array(mesh, value, trailing):
    """Coefficient at quadrature points: an array that broadcasts to
    (cells, nq) + trailing."""
    target = (mesh.num_cells, TRI_POINTS.shape[0]) + trailing
    return np.broadcast_to(np.asarray(value, dtype=float), target)


def _min_eig_sym2(D):
    a = D[..., 0, 0]
    c = D[..., 1, 1]
    b = 0.5 * (D[..., 0, 1] + D[..., 1, 0])
    mid = 0.5 * (a + c)
    rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return mid - rad


def _edge_quadrature(mesh, facet_mask):
    """(points (k, 2, 2), weights (k, 2), shape (k, 2 nodes, 2 qp), nodes)"""
    facets = mesh.facets[facet_mask]
    p0 = mesh.vertices[facets[:, 0]]
    p1 = mesh.vertices[facets[:, 1]]
    s = EDGE_POINTS
    pts = p0[:, None, :] + s[None, :, None] * (p1 - p0)[:, None, :]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    weights = lengths[:, None] * EDGE_WEIGHTS[None, :]
    shape = np.stack([1.0 - s, s], axis=0)  # (node, qp)
    return pts, weights, shape, facets


def boundary_load_vector(mesh, facet_mask, load, n_components):
    """Weak boundary load  ``l[A] = sum_facets int load * phi_A ds``.

    `load` is called with the quadrature points (k, q, 2) and the matching
    outward unit normals; it must return values of shape (k, q) for
    scalars or (k, q, n_components) for vectors.
    """
    n = mesh.num_vertices * n_components
    if not np.any(facet_mask):
        return np.zeros(n)
    pts, weights, shape, facets = _edge_quadrature(mesh, facet_mask)
    normals = mesh.facet_normals()[facet_mask]
    normals_q = np.broadcast_to(normals[:, None, :], pts.shape)
    values = np.asarray(load(pts, normals_q), dtype=float)
    if not np.all(np.isfinite(values)):
        raise AssemblyError("non-finite boundary load")
    # a scalar is one component
    values = values.reshape(pts.shape[:2] + (n_components,))
    contrib = np.einsum("kq,Aq,kqi->kAi", weights, shape, values)
    dofs = n_components * facets[:, :, None] + np.arange(n_components)
    # bincount adds in index order, as a scatter-add would
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n)


# The paths greedy `einsum_path` finds for every cell count from 3 up (the
# reaction term differs below that); fixed, so no call searches again.
_VECTOR_PATH = ["einsum_path", (0, 1), (0, 2), (0, 1)]
_DIFFUSION_PATH = ["einsum_path", (0, 2), (0, 2), (0, 1)]
_REACTION_PATH = ["einsum_path", (0, 1), (0, 1), (0, 1)]

# Cells per block of `assemble_vector_operator`: a block's coefficient
# tensor and the temporaries that build it stay under 0.4 MB each, however
# large the mesh.  On one 64^2 tangent, blocks of 128 to 4,096 cells peak
# within 1.2 MB of each other, and 1,024 was the fastest.
_BLOCK_CELLS = 1024


def assemble_vector_operator(mesh, coeff):
    """Stiffness (CSR, unconstrained) of the second-order system with
    fourth-order coefficient A:

        (v, u)  ->  int_Omega A[i, j, a, b] d_a v^i d_b u^j dx

    Summed by the elastic `dirichlet_system`, which imposes the
    constraints; boundary loads come from `boundary_load_vector`.

    The element matrices are computed `_BLOCK_CELLS` cells at a time into
    one preallocated array, so the coefficient tensor never needs to exist
    for the whole mesh.  Each element matrix is the one-shot einsum's bit
    for bit, since no sum runs over cells.

    Parameters
    ----------
    coeff : (cells, nq, 2, 2, 2, 2) array, or callable
        Coefficient tensor per quadrature point, or a function that returns
        it for a slice of cells; index order is (test component, trial
        component, test derivative, trial derivative).
    """
    if not callable(coeff):
        coeff = _as_quad_array(mesh, coeff, (2, 2, 2, 2)).__getitem__
    w = mesh.quad_weights()
    g = mesh.cell_gradients()
    Ke = np.empty((mesh.num_cells, 3, 2, 3, 2))
    for start in range(0, mesh.num_cells, _BLOCK_CELLS):
        cells = slice(start, start + _BLOCK_CELLS)
        A = coeff(cells)
        if not np.all(np.isfinite(A)):
            raise AssemblyError("non-finite coefficient tensor")
        np.einsum("cq,cqijab,cAa,cBb->cAiBj", w[cells], A, g[cells],
                  g[cells], optimize=_VECTOR_PATH, out=Ke[cells])
    return dirichlet_system(mesh, 2, mesh.elastic_dirichlet_nodes()
                            ).assemble(Ke)


def assemble_scalar_operator(mesh, diffusion, reaction=0.0,
                             ellipticity_nu=None):
    """Unconstrained operator (CSR) of the reaction-diffusion form

        (v, u)  ->  int_Omega grad v . D grad u + r u v dx

    summed by the nutrient `dirichlet_system`, whose `solve` imposes the
    values on the nutrient-Dirichlet part; flux loads come from
    `boundary_load_vector`.

    Raises EllipticityViolation when a sampled diffusion matrix has an
    eigenvalue below `ellipticity_nu`, and AssemblyError on non-finite or
    negative-reaction input.
    """
    D = _as_quad_array(mesh, diffusion, (2, 2))
    r = _as_quad_array(mesh, reaction, ())
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(r))):
        raise AssemblyError("non-finite coefficient")
    if np.any(r < 0.0):
        raise AssemblyError("negative reaction coefficient")
    if ellipticity_nu is not None:
        worst = float(np.min(_min_eig_sym2(D)))
        if worst < ellipticity_nu - 1e-14:
            raise EllipticityViolation(
                "diffusion eigenvalue %.6g below ellipticity constant %.6g"
                % (worst, ellipticity_nu))
    w = mesh.quad_weights()
    g = mesh.cell_gradients()
    Ke = np.einsum("cq,cAa,cqab,cBb->cAB", w, g, D, g,
                   optimize=_DIFFUSION_PATH)
    Ke += np.einsum("cq,cq,qA,qB->cAB", w, r, TRI_POINTS, TRI_POINTS,
                    optimize=_REACTION_PATH)
    return dirichlet_system(mesh, 1, mesh.nutrient_dirichlet_nodes()
                            ).assemble(Ke)


# ---------------------------------------------------------------------------
# gradient transfer


def _transfer(mesh, kind):
    """The mesh's transfer operator of `kind`, built on first use and kept
    by the mesh, each row listing its terms in the order the sum it
    replaces adds them:

    * ``"gradient"``: B, rows (c, a), entries g[c, A, a] in corner order;
    * ``"sampling"``: S, rows (c, q), entries TRI_POINTS[q, A] likewise;
    * ``"averaging"``: ``(N, N 1)``, N with rows the vertices and entries
      vol[c] corner-major in cell order, as one scatter-add per corner.

    The CSR arrays are read-only and never sorted or summed, so `@` adds
    each row from a zero start in stored order (scipy's `csr_matvec` and
    `csr_matvecs`), as einsum and bincount do.
    """
    def build():
        if kind == "averaging":
            corners = mesh.cells.T.ravel()
            columns = np.argsort(corners, kind="stable") % mesh.num_cells
            data = mesh.cell_volumes()[columns]
            indptr = np.concatenate(([0], np.cumsum(
                np.bincount(corners, minlength=mesh.num_vertices))))
            n_cols = mesh.num_cells
        else:
            weights = (np.swapaxes(mesh.cell_gradients(), 1, 2)
                       if kind == "gradient" else
                       np.broadcast_to(TRI_POINTS,
                                       (mesh.num_cells,) + TRI_POINTS.shape))
            data = weights.ravel()
            columns = np.broadcast_to(mesh.cells[:, None],
                                      weights.shape).ravel()
            indptr = np.arange(0, data.size + 1, 3)
            n_cols = mesh.num_vertices
        op = sp.csr_matrix((data, columns, indptr),
                           shape=(len(indptr) - 1, n_cols))
        return (op, op @ np.ones(n_cols)) if kind == "averaging" else op
    return mesh.cached(("transfer", kind), build)


def delaunay_like(mesh):
    """Whether the discrete maximum principle may be asserted: the P1
    Laplacian Bᵀ diag(|T|) B, with each cell's volume once per derivative
    row of B, has no off-diagonal entry above 1e-12 of its largest entry.
    Kept by the mesh."""
    def build():
        B = _transfer(mesh, "gradient")
        K = (B.T @ sp.diags(np.repeat(mesh.cell_volumes(), 2)) @ B).tocoo()
        off = K.data[K.row != K.col]
        return bool(np.max(off) <= 1e-12 * np.max(np.abs(K.data)))
    return mesh.cached("delaunay_like", build)


def interpolate_gradient(mesh, values):
    """Piecewise-constant gradient of the nodal interpolant.

    Scalar fields (n,) yield (cells, 2); vector fields (n, k) yield
    (cells, k, 2) with entry [c, i, a] = d_a v^i on cell c.
    """
    values = np.asarray(values, dtype=float)
    grad = _transfer(mesh, "gradient") @ values
    if values.ndim == 1:
        return grad.reshape(mesh.num_cells, 2)
    return grad.reshape(mesh.num_cells, 2, -1).swapaxes(1, 2)


def nodal_from_cells(mesh, cell_values):
    """Volume-weighted transfer of per-cell values to the vertices."""
    cell_values = np.asarray(cell_values, dtype=float)
    N, den = _transfer(mesh, "averaging")
    acc = N @ cell_values.reshape(mesh.num_cells, -1)
    column = (-1,) + (1,) * (cell_values.ndim - 1)
    return (acc.reshape((mesh.num_vertices,) + cell_values.shape[1:])
            / den.reshape(column))


def growth_at_quadrature(mesh, growth):
    """Sample a growth description at the volume quadrature points.

    `growth` is a nodal (n, 2, 2) field (P1-interpolated), a callable on
    points, or an already-sampled (cells, nq, 2, 2) array; the latter two
    let compatible benchmarks avoid compounding interpolation error.
    Returns (cells, nq, 2, 2).
    """
    nq = TRI_POINTS.shape[0]
    if callable(growth):
        return np.asarray(growth(mesh.quad_points()), dtype=float)
    growth = np.asarray(growth, dtype=float)
    if growth.shape == (mesh.num_cells, nq, 2, 2):
        return growth
    if growth.shape == (mesh.num_vertices, 2, 2):
        sampled = _transfer(mesh, "sampling") @ growth.reshape(-1, 4)
        return sampled.reshape(mesh.num_cells, nq, 2, 2)
    raise ValueError("growth field must be nodal (n, 2, 2), per-quadrature "
                     "(cells, nq, 2, 2), or callable")


def growth_at_nodes(mesh, growth):
    """Nodal values of a growth description, or None when the description
    only exists at quadrature points."""
    nq = TRI_POINTS.shape[0]
    if callable(growth):
        return np.asarray(growth(mesh.vertices), dtype=float)
    growth = np.asarray(growth, dtype=float)
    if growth.shape == (mesh.num_cells, nq, 2, 2):
        return None
    return growth
