import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from membranelab import (
    branch_linear_mesh,
    family_linear_mesh,
    revolve,
    shoot_family_member,
)
from membranelab.errors import AmplitudeTooLarge, IoFailure
from membranelab.surfaces import (
    _BLOCK_ROWS,
    PROFILE_CSV_HEADER,
    SurfaceMesh,
    export_csv,
    export_json,
    export_mesh_obj,
    export_profile_csv,
    profile_table,
    read_mesh_obj,
    read_profile_csv,
)
from membranelab._util import gauss_panels
import membranelab.surfaces as surfaces_mod

from _oracles import polyline_distance


def test_revolve_counts_and_topology(sig053):
    n_theta, n_profile = 48, 101
    m = revolve(sig053.curve, n_theta, n_profile)
    assert m.vertices.shape[0] == (n_profile - 1) * n_theta + 1
    assert m.euler_characteristic() == 1
    assert m.faces.shape[0] == n_theta * (2 * n_profile - 3)
    assert m.displacement.shape[0] == m.vertices.shape[0]
    assert np.all(m.displacement == 0.0)


def test_revolve_requires_min_theta(sig053):
    with pytest.raises(ValueError):
        revolve(sig053.curve, 8)


def test_linear_meshes_require_min_theta(sig053, lin053):
    with pytest.raises(ValueError, match="n_theta"):
        branch_linear_mesh(sig053, 0.1, 8)
    with pytest.raises(ValueError, match="n_theta"):
        family_linear_mesh(sig053, lin053, 0.01, 8)


def test_boundary_ring_on_circle(sig053):
    m = revolve(sig053.curve, 64, 201)
    b = m.vertices[m.boundary_vertex_indices()]
    assert np.max(np.abs(np.hypot(b[:, 0], b[:, 1]) - 0.5)) < 1e-8
    assert np.max(np.abs(b[:, 2] + 3.0)) < 1e-8


def test_mesh_area_second_order(sig053):
    curve = sig053.curve
    edges = np.linspace(0.0, curve.ell, 2001)
    nodes, wts = gauss_panels(edges[:-1], edges[1:], 8)
    r, _, _ = curve.state_at(nodes.ravel())
    exact = 2.0 * math.pi * float((r.reshape(nodes.shape) * wts).sum())
    errs = [
        abs(revolve(curve, nt, npf).area() - exact)
        for nt, npf in ((32, 101), (64, 201), (128, 401))
    ]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 < o < 2.2 for o in orders)


def test_branch_zero_amplitude_identical(sig053):
    base = revolve(sig053.curve, 32, 101)
    zero = branch_linear_mesh(sig053, 0.0, 32, 101)
    assert np.array_equal(base.vertices, zero.vertices)
    assert np.array_equal(base.faces, zero.faces)


def test_branch_mirror_symmetry(sig053):
    n_theta = 64
    m = branch_linear_mesh(sig053, 0.15, n_theta, 151)
    rings = m.vertices[1:].reshape(-1, n_theta, 3)
    mirrored = rings[:, (n_theta - np.arange(n_theta)) % n_theta, :]
    assert np.max(np.abs(rings[:, :, 0] - mirrored[:, :, 0])) < 1e-12
    assert np.max(np.abs(rings[:, :, 1] + mirrored[:, :, 1])) < 1e-12
    assert np.max(np.abs(rings[:, :, 2] - mirrored[:, :, 2])) < 1e-12


def test_branch_boundary_and_apex_fixed(sig053):
    base = revolve(sig053.curve, 32, 101)
    for s in (0.05, -0.2):
        m = branch_linear_mesh(sig053, s, 32, 101)
        idx = m.boundary_vertex_indices()
        assert np.max(np.abs(m.vertices[idx] - base.vertices[idx])) < 1e-12
        assert np.max(np.abs(m.vertices[0] - base.vertices[0])) < 1e-12


def test_branch_displacement_recorded(sig053):
    n_theta, n_profile, s = 32, 101, 0.11
    m = branch_linear_mesh(sig053, s, n_theta, n_profile)
    taus = np.linspace(0.0, sig053.curve.ell, n_profile)
    _, _, phi = sig053.curve.state_at(taus)
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    expected = s * np.sin(phi[1:])[:, None] * np.cos(thetas)[None, :]
    assert np.array_equal(m.displacement[1:], expected.ravel())


def test_family_mesh_boundary_fixed(sig053, lin053):
    base = revolve(sig053.curve, 32, 101)
    m = family_linear_mesh(sig053, lin053, 0.05, 32, 101)
    idx = m.boundary_vertex_indices()
    assert np.max(np.abs(m.vertices[idx] - base.vertices[idx])) < 1e-10


def test_family_mesh_zero_amplitude(sig053, lin053):
    base = revolve(sig053.curve, 32, 101)
    zero = family_linear_mesh(sig053, lin053, 0.0, 32, 101)
    assert np.array_equal(base.vertices, zero.vertices)


def test_family_linear_mesh_first_order_accuracy(sig053, lin053):
    def hausdorff(t):
        fm = family_linear_mesh(sig053, lin053, t, 32, 400)
        member = shoot_family_member(
            sig053.params.c_o + t, sig053.circle, sig053
        )
        ring = fm.vertices[1::32]
        gen_r = np.hypot(ring[:, 0], ring[:, 1])
        gen_z = ring[:, 2]
        ts = np.linspace(0.0, member.curve.ell, 4000)
        mr, mz, _ = member.curve.state_at(ts)
        return float(polyline_distance(gen_r, gen_z, mr, mz).max())

    d1, d2 = hausdorff(1e-2), hausdorff(5e-3)
    ratio = d1 / d2
    assert 3.0 < ratio < 5.0  # O(t^2) defect against the true member


def _face(idx, n_theta):
    """Vertex indices of face ``idx`` of the apex-fan disc triangulation."""
    if idx < n_theta:
        return [0, 1 + idx, 1 + (idx + 1) % n_theta]
    i, rest = divmod(idx - n_theta, 2 * n_theta)
    j, second = divmod(rest, 2)
    a, b, jn = 1 + i * n_theta, 1 + (i + 1) * n_theta, (j + 1) % n_theta
    return [a + j, b + jn, a + jn] if second else [a + j, b + j, b + jn]


def _edge_set_count(faces):
    return len(
        {frozenset((f[k], f[(k + 1) % 3])) for f in faces.tolist() for k in range(3)}
    )


@pytest.mark.parametrize("n_theta, n_profile", [(16, 2), (17, 3), (32, 7)])
def test_faces_closed_form_and_edge_count(sig053, n_theta, n_profile):
    m = revolve(sig053.curve, n_theta, n_profile)
    assert m.faces.dtype == np.int64
    expected = [_face(k, n_theta) for k in range(m.faces.shape[0])]
    assert m.faces.tolist() == expected
    assert m.edge_count() == _edge_set_count(m.faces)
    assert m.euler_characteristic() == 1


def test_edge_count_closed_surface():
    # a tetrahedron: 4 faces, 6 edges, Euler characteristic 2
    m = SurfaceMesh(
        vertices=np.eye(4)[:, :3].copy(),
        faces=np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]], dtype=np.int64),
        displacement=np.zeros(4),
        meta={},
    )
    assert m.edge_count() == 6 == _edge_set_count(m.faces)
    assert m.euler_characteristic() == 2


@pytest.mark.parametrize("n_profile", [1, 0, -3])
def test_mesh_rejects_short_profile(sig053, lin053, n_profile):
    with pytest.raises(ValueError, match="n_profile"):
        revolve(sig053.curve, 32, n_profile)
    with pytest.raises(ValueError, match="n_profile"):
        branch_linear_mesh(sig053, 0.1, 32, n_profile)
    with pytest.raises(ValueError, match="n_profile"):
        family_linear_mesh(sig053, lin053, 0.01, 32, n_profile)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_mesh_rejects_non_finite_amplitude(sig053, lin053, amplitude):
    with pytest.raises(ValueError, match="amplitude"):
        branch_linear_mesh(sig053, amplitude, 32, 101)
    with pytest.raises(ValueError, match="amplitude"):
        family_linear_mesh(sig053, lin053, amplitude, 32, 101)


def test_amplitude_guard(sig053, lin053):
    with pytest.raises(AmplitudeTooLarge):
        branch_linear_mesh(sig053, 5.0, 32, 101)
    with pytest.raises(AmplitudeTooLarge):
        family_linear_mesh(sig053, lin053, 3.0, 32, 101)


def test_blocked_guard_minimum_is_exact(sig053):
    m = branch_linear_mesh(sig053, 0.15, 64, 200)
    assert m.faces.shape[0] % _BLOCK_ROWS != 0 and m.faces.shape[0] > 2 * _BLOCK_ROWS
    assert surfaces_mod._min_triangle_area(m) == m.triangle_areas().min()


def test_guard_reads_the_last_partial_block(sig053, monkeypatch):
    # 16 x 5 gives 112 faces, in blocks of 50, 50 and 12; the displacement
    # moves vertex j = 15 of the last two rings to one point, so face 110,
    # (a + 15, b + 15, b), has zero area
    monkeypatch.setattr(surfaces_mod, "_BLOCK_ROWS", 50)
    curve = sig053.curve

    def collapse(taus, phi, thetas):
        r, z, _ = curve.state_at(taus[-2:])
        normals = np.array([np.sin(phi[-2:]), -np.cos(phi[-2:])])
        gap = np.array([r[1] - r[0], z[1] - z[0]])
        d_a, d_b = np.linalg.solve(normals * [1.0, -1.0], gap)
        field = np.zeros((taus.size, thetas.size))
        field[-2:, -1] = d_a, d_b
        return field

    with pytest.raises(AmplitudeTooLarge):
        surfaces_mod._assemble(curve, 16, 5, collapse, "collapse", 1.0)


def _tetrahedron(vertices=None):
    return SurfaceMesh(
        vertices=np.eye(4)[:, :3].copy() if vertices is None else vertices,
        faces=np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]], dtype=np.int64),
        displacement=np.zeros(4),
        meta={},
    )


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_edge_count_across_blocks(sig053, monkeypatch, block_rows):
    sizes = [(16, 2), (17, 3), (32, 7)]
    discs = [revolve(sig053.curve, n_theta, n_profile) for n_theta, n_profile in sizes]
    monkeypatch.setattr(surfaces_mod, "_BLOCK_ROWS", block_rows)
    for m in [_tetrahedron()] + discs:
        assert m.edge_count() == _edge_set_count(m.faces)


def _row_wise_areas(mesh):
    """The triangle areas by the row-wise formula, the oracle of the guard."""
    v, f = mesh.vertices, mesh.faces
    a = v[f[:, 1]] - v[f[:, 0]]
    b = v[f[:, 2]] - v[f[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def test_triangle_areas_are_the_row_wise_formula(sig053, lin053):
    meshes = [
        revolve(sig053.curve, 64, 200),
        branch_linear_mesh(sig053, 0.15, 64, 200),
        family_linear_mesh(sig053, lin053, 0.05, 64, 200),
        _tetrahedron(),
    ]
    for m in meshes:
        expected = _row_wise_areas(m)
        assert np.array_equal(m.triangle_areas(), expected)
        assert surfaces_mod._min_triangle_area(m) == expected.min()
        assert m.area() == float(expected.sum())
    # a NaN vertex gives its faces NaN areas, and the guard's minimum is NaN
    vertices = np.eye(4)[:, :3].copy()
    vertices[3, 1] = math.nan
    m = _tetrahedron(vertices)
    areas = m.triangle_areas()
    assert np.isnan(areas[1:]).all() and not np.isnan(areas[0])
    assert np.array_equal(areas, _row_wise_areas(m), equal_nan=True)
    assert np.isnan(surfaces_mod._min_triangle_area(m))


# ------------------------------------------------------------------ exports


def test_profile_csv_roundtrip(tmp_path, curve26):
    path = tmp_path / "profile.csv"
    entry = export_profile_csv(curve26, path, n=123)
    assert entry.format == "csv"
    data = read_profile_csv(path)
    assert list(data) == PROFILE_CSV_HEADER.split(",")
    assert data["tau"].size == 123
    # 17 significant digits round-trip float64 exactly
    taus = np.linspace(0.0, curve26.ell, 123)
    r, z, phi = curve26.state_at(taus)
    assert np.array_equal(data["r"], r)
    assert np.array_equal(data["z"], z)
    assert np.array_equal(data["sigma"], curve26.ell - taus)


def test_profile_csv_default_rows_are_samples(tmp_path, curve26):
    path = tmp_path / "profile.csv"
    export_profile_csv(curve26, path)
    data = read_profile_csv(path)
    assert data["tau"].size == curve26.taus.size + 1  # axis row prepended
    assert data["tau"][0] == 0.0 and data["r"][0] == 0.0


def test_obj_roundtrip_and_indices(tmp_path, sig053):
    m = revolve(sig053.curve, 32, 61)
    path = tmp_path / "mesh.obj"
    export_mesh_obj(m, path)
    text = path.read_text()
    assert text.startswith("v ")
    verts, faces = read_mesh_obj(path)
    assert np.array_equal(verts, m.vertices)
    assert np.array_equal(faces, m.faces)
    assert faces.min() >= 0 and faces.max() < verts.shape[0]


def test_exports_are_deterministic(tmp_path, curve26, sig053):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    export_profile_csv(curve26, p1)
    export_profile_csv(curve26, p2)
    assert p1.read_bytes() == p2.read_bytes()
    m1 = tmp_path / "a.obj"
    m2 = tmp_path / "b.obj"
    mesh = revolve(sig053.curve, 32, 61)
    export_mesh_obj(mesh, m1)
    export_mesh_obj(mesh, m2)
    assert m1.read_bytes() == m2.read_bytes()
    j = tmp_path / "r.json"
    export_json({"alpha": 1.0}, j)
    assert j.read_text().startswith("{")


def test_export_io_failure(curve26, tmp_path):
    with pytest.raises(IoFailure):
        export_profile_csv(curve26, tmp_path / "nodir" / "x.csv")


# the text formats, pinned: 17 significant digits through "%.17g"
_AWKWARD = [0.1, -0.0, 1.0 / 3.0, 1e-300, 2.0**53 + 1]


def test_obj_literal_text(tmp_path):
    m = SurfaceMesh(
        vertices=np.array([_AWKWARD[:3], _AWKWARD[2:]]),
        faces=np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int64),
        displacement=np.zeros(2),
        meta={},
    )
    path = tmp_path / "tiny.obj"
    export_mesh_obj(m, path)
    assert path.read_bytes() == (
        b"v 0.10000000000000001 -0 0.33333333333333331\n"
        b"v 0.33333333333333331 1e-300 9007199254740992\n"
        b"f 1 2 2\n"
        b"f 2 1 1\n"
    )


def test_csv_literal_text(tmp_path):
    path = tmp_path / "tiny.csv"
    export_csv(path, "a,b", [_AWKWARD[:3], [-2.0, 1.5, 1e22]], "table")
    assert path.read_bytes() == (
        b"a,b\n"
        b"0.10000000000000001,-2\n"
        b"-0,1.5\n"
        b"0.33333333333333331,1e+22\n"
    )
    export_csv(path, "a,b", [[], []], "table")
    assert path.read_bytes() == b"a,b\n"


def test_obj_and_csv_match_per_line_reference(tmp_path, sig053, monkeypatch):
    m = revolve(sig053.curve, 64, 200)
    assert m.vertices.shape[0] > _BLOCK_ROWS and m.faces.shape[0] > 2 * _BLOCK_ROWS
    lines = ["v " + " ".join("%.17g" % x for x in v) for v in m.vertices]
    lines += ["f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1) for f in m.faces]
    path = tmp_path / "mesh.obj"
    seen = _digit_encoder_inputs(monkeypatch)
    export_mesh_obj(m, path)
    assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"
    # every block of faces, the last partial one too, is encoded by value range
    blocks = -(-m.faces.shape[0] // _BLOCK_ROWS)
    assert len(seen) == blocks and all(map(_is_range, seen))

    n = _BLOCK_ROWS + 17
    table = profile_table(sig053.curve, n=n)
    rows = zip(*(table[c] for c in PROFILE_CSV_HEADER.split(",")))
    lines = [PROFILE_CSV_HEADER] + [",".join("%.17g" % v for v in row) for row in rows]
    path = tmp_path / "profile.csv"
    export_profile_csv(sig053.curve, path, n=n)
    assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"


def test_obj_io_failure(tmp_path, sig053):
    with pytest.raises(IoFailure):
        export_mesh_obj(revolve(sig053.curve, 16, 3), tmp_path / "nodir" / "x.obj")


def _traced_rise(fn):
    """(fn(), peak traced bytes during the call above those before it)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - before


def test_mesh_path_memory_is_bounded(tmp_path, curve26):
    # building and checking a 256 x 1000 mesh takes little beyond its own
    # 20.5 MB of arrays; the edge keys alone are 12.3 MB.  The OBJ writer
    # holds one block of rows at a time, so writing a 64 x 1000 mesh (3 MB
    # of faces) takes no more than a block's text and numbers.
    # the curve's interpolants are built on first use; build them untraced
    curve26.state_at([0.0, curve26.ell])
    small = revolve(curve26, 64, 1000)
    tracemalloc.start()
    try:
        mesh, built = _traced_rise(lambda: revolve(curve26, 256, 1000))
        own = mesh.vertices.nbytes + mesh.faces.nbytes + mesh.displacement.nbytes
        chi, counted = _traced_rise(mesh.euler_characteristic)
        _, written = _traced_rise(lambda: export_mesh_obj(small, tmp_path / "m.obj"))
    finally:
        tracemalloc.stop()
    assert chi == 1
    assert built - own < 20e6
    assert counted < 20e6
    assert small.faces.nbytes > 3e6 and written < 2e6


# ------------------------------------------ the row encoder against "%"

_ENCODING = settings(max_examples=300, deadline=None)


def _encoded(template, values, dtype):
    """The writer's bytes for ``values``, one per row of ``template``."""
    column = np.asarray(values, dtype=dtype).reshape(-1, 1)
    return surfaces_mod._encode_rows(surfaces_mod._row_layout(template), column)


def _reference(template, values):
    return "".join(template % v for v in values).encode("ascii")


@_ENCODING
@given(st.lists(st.floats(), min_size=1, max_size=64))
@example([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-300, math.nan, math.inf])
@example([1e-4, 9.9999999999999991e-05, 1e16, 1e17, 99999999999999984.0, 1e22])
def test_float_encoding_is_percent_17g(values):
    assert _encoded("%.17g\n", values, float) == _reference("%.17g\n", values)


def _near_powers_of_ten():
    """10**k for k = -6 ... 17, its 50 neighbours each side, and their negatives."""
    values = []
    for k in range(-6, 18):
        for direction in (-math.inf, math.inf):
            x = float(f"1e{k}")
            for _ in range(51):
                values += [x, -x]
                x = math.nextafter(x, direction)
    return values


def test_float_encoding_near_powers_of_ten():
    # floor(log10 |x|) can miss the exponent next to 10**k; 1e-4 and 1e17
    # bound the values whose digits come from numpy
    values = _near_powers_of_ten()
    assert _encoded("%.17g\n", values, float) == _reference("%.17g\n", values)


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_float_encoding_survives_an_inexact_log10(monkeypatch, direction):
    # the exponent is only estimated: a log10 a few ulps low or high, as a
    # vectorized one may be, misses it on either side and changes no byte
    log10 = np.log10

    def skewed(a):
        out = log10(a)
        for _ in range(4):
            out = np.nextafter(out, direction)
        return out

    monkeypatch.setattr(np, "log10", skewed)
    values = _near_powers_of_ten()
    assert _encoded("%.17g\n", values, float) == _reference("%.17g\n", values)


@st.composite
def _ties(draw):
    """x with |x| 10**(16 - X) = j 5**(16 - X) / 2, j odd: a tie at 17 digits.

    x = j / 2**(17 - X) lies in [10**X, 10**(X + 1)) and is exact for
    j < 2**53; 17-digit ties exist for X = -4 ... 15.
    """
    X = draw(st.integers(-4, 15))
    scale = Fraction(2 ** (17 - X))
    lo = math.ceil(scale * Fraction(10) ** X)
    hi = min(math.ceil(scale * Fraction(10) ** (X + 1)), 2**53)
    j = 2 * draw(st.integers(lo // 2, (hi - 2) // 2)) + 1
    x = j / scale.numerator
    assert (Fraction(x) * Fraction(10) ** (16 - X)).denominator == 2
    return -x if draw(st.booleans()) else x


@_ENCODING
@given(st.lists(_ties(), min_size=1, max_size=16))
@example([1000000000000000.25, 1000000000000000.75, 0.5])
def test_float_encoding_rounds_ties_to_even(values):
    assert _encoded("%.17g\n", values, float) == _reference("%.17g\n", values)


def _digit_encoder_inputs(monkeypatch):
    """The list of the arrays that ``_encode_ints`` passes on to be encoded
    digit by digit, filled as it runs."""
    seen = []
    digits = surfaces_mod._encode_int_digits
    monkeypatch.setattr(
        surfaces_mod, "_encode_int_digits", lambda v: seen.append(v) or digits(v)
    )
    return seen


def _is_range(v):
    return np.array_equal(v, v[0] + np.arange(v.size))


_SHUFFLED = np.random.default_rng(7).permutation(3 * 10**4) - 10**4


@_ENCODING
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
@example([0, -1, 1, 9999, 10000, -10000, 2**63 - 1, -(2**63)])
@example(_SHUFFLED.tolist())
@example([10000, 9999, 10000, 10000, 9998, 9999])
@example([0, -3, -1, 0, -2, 1])
@example([-(2**63)])
@example([2**63 - 1, 2**63 - 1])
@example([-(2**63), 2**63 - 1])
def test_int_encoding_is_percent_d(values):
    assert _encoded("%d\n", values, np.int64) == _reference("%d\n", values)


@pytest.mark.parametrize(
    "values, by_range",
    [
        (_SHUFFLED, True),
        ([10000, 9999, 10000, 10000, 9998, 9999], True),
        ([0, -3, -1, 0, -2, 1], True),
        ([0], True),
        ([-(2**63)], True),
        ([2**63 - 1, 2**63 - 2], True),
        ([1, 0], True),
        ([2, 0], False),
        ([-10000, 10000], False),
        # a span that overflows int64 is computed exactly, and not tabled
        ([-(2**63), 2**63 - 1], False),
        ([2**63 - 1, -(2**63), 0], False),
    ],
)
def test_int_encoding_by_value_range(monkeypatch, values, by_range):
    # values spanning no more integers than they count are encoded through
    # the table of the integers from their least to their largest
    seen = _digit_encoder_inputs(monkeypatch)
    values = np.asarray(values, dtype=np.int64)
    assert _encoded("%d\n", values, np.int64) == _reference("%d\n", values.tolist())
    lo, hi = int(values.min()), int(values.max())
    table = lo + np.arange(hi - lo + 1) if by_range else values
    assert len(seen) == 1 and np.array_equal(seen[0], table)


def _awkward_floats(rng, shape):
    """Floats of every magnitude, with zeros, subnormals and non-finite values."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    flat = values.reshape(-1)
    special = [0.0, -0.0, 5e-324, 1e-300, 1e-4, 1e16, 1e17, math.nan, -math.inf]
    flat[rng.choice(flat.size, len(special), replace=False)] = special
    return values


@pytest.mark.parametrize(
    "n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 17]
)
def test_every_row_template_matches_per_line_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    vertices = _awkward_floats(rng, (n, 3))
    # indices up to 10**7 are encoded digit by digit; those up to n fill
    # every whole block with more values than they span, so a whole block of
    # them is encoded by value range
    sparse = rng.integers(0, 10**7, (n, 3))
    sparse[0] = 0
    dense = rng.integers(0, n, (n, 3))
    dense[-1] = n - 1
    for faces in (sparse, dense):
        mesh = SurfaceMesh(
            vertices=vertices, faces=faces, displacement=np.zeros(n), meta={}
        )
        export_mesh_obj(mesh, tmp_path / "m.obj")
        expected = _reference("v %.17g %.17g %.17g\n", map(tuple, vertices.tolist()))
        expected += _reference("f %d %d %d\n", map(tuple, (faces + 1).tolist()))
        assert (tmp_path / "m.obj").read_bytes() == expected
    for width in (1, 5, 7, 11):
        table = _awkward_floats(rng, (n, width))
        export_csv(tmp_path / "t.csv", "h", list(table.T), "table")
        row = ",".join(["%.17g"] * width) + "\n"
        expected = b"h\n" + _reference(row, map(tuple, table.tolist()))
        assert (tmp_path / "t.csv").read_bytes() == expected
