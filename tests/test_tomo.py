import hashlib
import sys

import numpy as np
import pytest

from spectomo import Grid2D, ParallelGeometry, TomoOperator, equispaced_angles

from oracles import dense_reference_projector, siddon_row


def make_op(n=8, n_angles=3, n_det=None, angles=None):
    grid = Grid2D(n, n)
    if angles is None:
        angles = equispaced_angles(n_angles)
    geom = ParallelGeometry(angles=angles, n_det=n_det or n)
    return TomoOperator(grid, geom)


def dense_from_forward(op):
    basis = np.eye(op.n_image)
    return op.forward(basis)


class TestValidation:
    def test_grid_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid2D(0, 4)
        with pytest.raises(ValueError):
            Grid2D(4, 4, pixel_size=0.0)

    @pytest.mark.parametrize("nx", [4.5, True, "4"], ids=["float", "bool", "str"])
    def test_grid_rejects_a_size_that_is_not_an_integer(self, nx):
        with pytest.raises(TypeError, match="nx must be an integer"):
            Grid2D(nx, 4)
        with pytest.raises(TypeError, match="ny must be an integer"):
            Grid2D(4, nx)

    def test_grid_accepts_numpy_integer_sizes(self):
        assert Grid2D(np.int64(4), np.int32(3)).n_pixels == 12

    @pytest.mark.parametrize("origin", [(np.nan, 0.0), (0.0, np.inf), (0.0,)],
                             ids=["nan", "inf", "one-number"])
    def test_grid_rejects_a_bad_origin(self, origin):
        with pytest.raises(ValueError, match="origin must be two finite numbers"):
            Grid2D(4, 4, origin=origin)

    @pytest.mark.parametrize("size", [np.inf, np.nan])
    def test_grid_rejects_a_pixel_size_that_is_not_finite(self, size):
        with pytest.raises(ValueError, match="pixel_size must be positive and finite"):
            Grid2D(4, 4, pixel_size=size)

    def test_refine_by_an_integral_float(self):
        assert Grid2D(4, 4).refine(2.0) == Grid2D(8, 8, 0.5)

    @pytest.mark.parametrize("n_det", [2.5, True], ids=["float", "bool"])
    def test_geometry_rejects_a_detector_count_that_is_not_an_integer(self, n_det):
        with pytest.raises(TypeError, match="n_det must be an integer"):
            ParallelGeometry(angles=np.array([0.0]), n_det=n_det)

    @pytest.mark.parametrize("spacing", [np.inf, np.nan, 0.0])
    def test_geometry_rejects_a_bad_detector_spacing(self, spacing):
        with pytest.raises(ValueError, match="det_spacing must be positive and finite"):
            ParallelGeometry(angles=np.array([0.0]), n_det=4, det_spacing=spacing)

    def test_geometry_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ParallelGeometry(angles=np.array([]), n_det=4)
        with pytest.raises(ValueError):
            ParallelGeometry(angles=np.array([np.nan]), n_det=4)
        with pytest.raises(ValueError):
            ParallelGeometry(angles=np.array([0.0]), n_det=0)

    def test_forward_shape_mismatch(self):
        op = make_op()
        with pytest.raises(ValueError):
            op.forward(np.ones(op.n_image + 1))

    def test_forward_nonfinite(self):
        op = make_op()
        x = np.ones(op.n_image)
        x[3] = np.inf
        with pytest.raises(ValueError):
            op.forward(x)

    def test_adjoint_shape_mismatch(self):
        op = make_op()
        with pytest.raises(ValueError):
            op.adjoint(np.ones(op.n_rays - 1))


class TestForward:
    def test_zero_image_gives_zero_sinogram(self):
        op = make_op(n_angles=5)
        assert np.all(op.forward(np.zeros(op.n_image)) == 0.0)

    def test_constant_image_axis_aligned_column(self):
        # detector bins line up with the pixel columns, so each vertical ray
        # integrates a full column: 8 * pixel_size
        op = make_op(n=8, angles=np.array([0.0]))
        sino = op.forward(np.ones(64))
        assert np.allclose(sino, 8.0, atol=1e-12)
        # exact intersection-length tracer agrees for aligned rays
        for k, t in enumerate(op.geometry.det_centers()):
            ray = siddon_row(op.grid, 0.0, t)
            assert abs(ray @ np.ones(64) - sino[k]) < 1e-12

    def test_forward_reproduces_dense_oracle_4x4(self):
        op = make_op(n=4, n_angles=3)
        W_ref = dense_reference_projector(op.grid, op.geometry)
        W = dense_from_forward(op)
        assert np.max(np.abs(W - W_ref)) <= 1e-12

    @pytest.mark.parametrize("n_angles", [1, 4, 7])
    def test_dense_agreement_8x8(self, n_angles):
        op = make_op(n=8, n_angles=n_angles, n_det=11)
        W_ref = dense_reference_projector(op.grid, op.geometry)
        W = dense_from_forward(op)
        assert np.max(np.abs(W - W_ref)) <= 1e-12

    def test_linearity(self):
        op = make_op(n=8, n_angles=6)
        rng = np.random.default_rng(1)
        x, z = rng.normal(size=(2, op.n_image))
        lhs = op.forward(0.7 * x + 1.3 * z)
        rhs = 0.7 * op.forward(x) + 1.3 * op.forward(z)
        scale = np.abs(rhs).max()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(scale, 1.0)

    def test_nonnegativity_preserved(self):
        op = make_op(n=8, n_angles=9)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1.0, op.n_image)
        assert np.all(op.forward(x) >= 0.0)
        y = rng.uniform(0.0, 1.0, op.n_rays)
        assert np.all(op.adjoint(y) >= 0.0)

    def test_rays_missing_grid_are_zero(self):
        # detector much wider than the grid: outer rays never touch it
        op = make_op(n=4, angles=np.array([0.3]), n_det=40)
        sino = op.forward(np.ones(op.n_image))
        assert sino[0] == 0.0 and sino[-1] == 0.0
        assert sino.max() > 0.0

    def test_batched_columns_match_single(self):
        op = make_op(n=8, n_angles=5)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(op.n_image, 3))
        S = op.forward(X)
        for k in range(3):
            assert np.array_equal(S[:, k], op.forward(X[:, k]))

    def test_deterministic(self):
        op = make_op(n=16, n_angles=12)
        x = np.random.default_rng(4).normal(size=op.n_image)
        assert np.array_equal(op.forward(x), op.forward(x))


class TestAdjoint:
    def test_zero_sinogram_gives_zero_image(self):
        op = make_op(n_angles=5)
        assert np.all(op.adjoint(np.zeros(op.n_rays)) == 0.0)

    def test_dot_product_test(self):
        op = make_op(n=16, n_angles=12, n_det=16)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=op.n_image)
            y = rng.normal(size=op.n_rays)
            wx = op.forward(x)
            wty = op.adjoint(y)
            lhs, rhs = wx @ y, x @ wty
            denom = (np.linalg.norm(wx) * np.linalg.norm(y)
                     + np.linalg.norm(x) * np.linalg.norm(wty))
            assert abs(lhs - rhs) <= 1e-10 * denom

    def test_one_hot_sinogram_matches_dense_row(self):
        op = make_op(n=4, n_angles=3)
        W_ref = dense_reference_projector(op.grid, op.geometry)
        rng = np.random.default_rng(6)
        for j in rng.choice(op.n_rays, size=5, replace=False):
            e = np.zeros(op.n_rays)
            e[j] = 1.0
            assert np.max(np.abs(op.adjoint(e) - W_ref[j])) <= 1e-12

    def test_batched_adjoint_columns(self):
        op = make_op(n=8, n_angles=4)
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(op.n_rays, 3))
        B = op.adjoint(Y)
        for k in range(3):
            assert np.array_equal(B[:, k], op.adjoint(Y[:, k]))


class TestGrid:
    def test_refine_preserves_extent(self):
        g = Grid2D(8, 8, pixel_size=0.5)
        g2 = g.refine(2)
        assert (g2.nx, g2.ny) == (16, 16)
        assert g2.pixel_size == 0.25
        assert g.nx * g.pixel_size == g2.nx * g2.pixel_size

    def test_rectangular_grid_supported(self):
        grid = Grid2D(6, 4)
        geom = ParallelGeometry(angles=equispaced_angles(5), n_det=9)
        op = TomoOperator(grid, geom)
        W_ref = dense_reference_projector(grid, geom)
        W = dense_from_forward(op)
        assert np.max(np.abs(W - W_ref)) <= 1e-12


class TestAssembledMatrix:
    def test_rows_match_dense_reference_without_stored_zeros(self):
        # angles on both sides of 45 degrees: rays sampled per pixel row
        # (y-dominant) and per pixel column (x-dominant)
        grid = Grid2D(7, 5, pixel_size=0.8, origin=(0.3, -0.2))
        angles = np.array([0.0, 0.4, np.pi / 4, 1.2, np.pi / 2, 2.0, 2.9, 4.0])
        geom = ParallelGeometry(angles=angles, n_det=10, det_spacing=0.7)
        y_dominant = np.abs(np.cos(angles)) >= np.abs(np.sin(angles))
        assert y_dominant.any() and not y_dominant.all()
        op = TomoOperator(grid, geom)
        W_ref = dense_reference_projector(grid, geom)
        assert op.W.shape == W_ref.shape
        assert np.max(np.abs(op.W.toarray() - W_ref)) <= 1e-12
        assert np.all(op.W.data != 0.0)
        assert op.W.indices.dtype == np.int32
        assert op.W.indptr.dtype == np.int32

    def test_calls_leave_operator_attributes_unchanged(self):
        # neither the operator nor any of its attributes gains or swaps a
        # member, so no call can leave a cache or scratch buffer behind
        def members(obj):
            return dict(vars(obj)) if hasattr(obj, "__dict__") else {}

        op = make_op(n=16, n_angles=12)
        before = {name: (value, members(value)) for name, value in vars(op).items()}
        rng = np.random.default_rng(8)
        for _ in range(2):
            op.forward(rng.normal(size=(op.n_image, 32)))
            op.adjoint(rng.normal(size=(op.n_rays, 32)))
        assert vars(op).keys() == before.keys()
        for name, (value, inner) in before.items():
            assert getattr(op, name) is value
            now = members(value)
            assert now.keys() == inner.keys()
            assert all(now[key] is inner[key] for key in inner)

    def test_arrays_own_exactly_the_nonzeros(self):
        # a detector wider than the grid: many neighbours fall off it, so
        # the assembly drops zeros, and no array may keep the dropped slots
        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        op = make_op(n=16, n_angles=12, n_det=24)
        assert op.W.nnz < 12 * 24 * 2 * 16
        for name in ("data", "indices"):
            array = getattr(op.W, name)
            assert array.size == op.W.nnz, name
            assert owner(array).nbytes == array.nbytes, name

    def test_builds_under_trace_and_profile_hooks(self):
        # debuggers, coverage and profilers install these hooks; they keep
        # the frame's locals alive, which the in-place shrink must tolerate
        def hook(frame, event, arg):
            return hook

        old_trace, old_profile = sys.gettrace(), sys.getprofile()
        sys.settrace(hook)
        sys.setprofile(hook)
        try:
            op = make_op(n=16, n_angles=12, n_det=24)
        finally:
            sys.settrace(old_trace)
            sys.setprofile(old_profile)
        assert op.W.data.size == op.W.nnz
        assert np.array_equal(op.W.toarray(), make_op(n=16, n_angles=12, n_det=24).W.toarray())


# nnz and sha256 of W's indptr, indices and data bytes for five geometries:
# a change to any weight, index or order of the entries within a row shows
# here, even one far below the dense-oracle tolerances above
PINNED_W = {
    "64x64-60": (
        lambda: (Grid2D(64, 64), ParallelGeometry(equispaced_angles(60), 64)),
        409216,
        "a32efbaa2d72b6295607c8ae3b800de375eac377f733ac287079da27991e9e7c",
        "d46c66a61cada3de016948a8df0aa382800276e9f3d05040107dbb9a2ae8aa8f",
        "c6ee4314cee481e6cb06aa79cd44eca68ed79c72eea0d9a83d3ce7de2fc9302c"),
    # the simulation's 2x operator: first of its two angle blocks
    "refined-half-block": (
        lambda: (Grid2D(64, 64).refine(2),
                 ParallelGeometry(np.array_split(equispaced_angles(60), 2)[0], 64)),
        417384,
        "8a6abd5e02b0e3e2c9a7bc22fd9bf96e7861af4531aa2001bacd575c41c84710",
        "f118ac93841ba9957401c3a87785ebfdcc8eb180ffdce343cdf363b7c839d789",
        "4dc06bb43405d628dc1c570ee935c056598e490d6ad4a2d69093089aa3cd0fee"),
    # non-zero origin, pixel size and detector spacing != 1, a detector
    # wider than the grid, the pi/4 tie, a negative angle and one above 2 pi
    "rect-wide-detector": (
        lambda: (Grid2D(23, 17, pixel_size=0.7, origin=(0.4, -1.3)),
                 ParallelGeometry(np.array([0.0, np.pi / 4, 3 * np.pi / 4, -0.3, 7.0, 2.2]),
                                  41, 0.9)),
        2970,
        "76dd4c0f3b7e9fac2baa271562a6d81aaa9ca9406ad3384f057722d3d3534816",
        "181878eb337961099e785bd0660f5bb6aee6a433d9f473b8ef2a61a51f95f23a",
        "455ca979bb4362e3e895ba60734b403d54b772e4fad2bdc0d03a15042bdac9fb"),
    "one-angle": (
        lambda: (Grid2D(32, 32), ParallelGeometry(np.array([0.3]), 40)),
        1956,
        "d3536cc5be1b0b7c3e51f6fb01028225aae22e73743c78e18f434b8b37bb7a7b",
        "c6b1026e9ada3a57e60a1a3ff68150fb8b368cb0599a3076ce67544a6101d30b",
        "74483e9b362977a59b4fcd50324937abb1d87310360f468f41c5919d6b87bed5"),
    # 12 of the 20 angles y-dominant, the rest x-dominant
    "mixed-dominance": (
        lambda: (Grid2D(40, 24, pixel_size=1.5),
                 ParallelGeometry(np.random.default_rng(5).uniform(-np.pi, 2 * np.pi, 20),
                                  30, 1.3)),
        32242,
        "ba27324b529233e396f28dcec36ee5ace204cbdd43ffc9e3f0dcb011664a7d29",
        "121ad77c837e603581231d1a180f91e7166875b9771f1e9d4a4813930d168c8b",
        "f3c9976f2d5b124beed0161c757dc679993eccc1ec34413c12718ac60b53480e"),
}


@pytest.mark.parametrize("name", PINNED_W)
def test_assembled_matrix_is_bit_identical_to_recorded(name):
    build, nnz, *digests = PINNED_W[name]
    W = TomoOperator(*build()).W
    assert W.nnz == nnz
    assert (W.indptr.dtype, W.indices.dtype, W.data.dtype) == (np.int32, np.int32, np.float64)
    got = [hashlib.sha256(getattr(W, a).tobytes()).hexdigest() for a in ("indptr", "indices", "data")]
    assert got == digests
