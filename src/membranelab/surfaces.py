"""Surfaces of revolution, first-order perturbation meshes, and artifact I/O.

Meshes are triangulated discs: an apex vertex on the rotation axis, rings of
``n_theta`` vertices at uniformly resampled arc lengths, a fan at the apex
and two triangles per quad elsewhere.  Perturbed meshes displace vertices
along the surface normal

    N(tau, theta) = (sin(phi) cos(theta), sin(phi) sin(theta), -cos(phi))

by a per-vertex scalar field that is recorded verbatim on the mesh: the
symmetry-breaking branch uses s * sin(phi) * cos(theta) (first angular mode,
even in theta), the axisymmetric family uses t * h(tau).  Both fields vanish
on the boundary ring, so every perturbed mesh spans the same circle.

File artifacts: CSV tables written by ``export_csv`` (among them the
profile CSV with the fixed header ``tau,sigma,r,z,phi,H,K,nu3,kappa,q,xi``),
ASCII OBJ with v/f records only, JSON run records; all floats with 17
significant digits, all outputs deterministic functions of their inputs, and
every write failure raised as IoFailure.  CSV and OBJ rows go through one
writer, ``_write_rows``, which formats and writes ``_BLOCK_ROWS`` rows at a
time, so no file is ever held in memory as text.  A block is encoded in
numpy to the very bytes of ``%.17g`` and ``%d``: Dekker's exact product of
|x| and a power of ten gives the 17 digits, rounded half to even.  Only
zeros, |x| outside [1e-4, 1e17) and non-finite values are formatted by
``%``, one value at a time.

A block of integers that spans no more values than it holds, as a block of
face indices does, is encoded by value range: the integers from its least to
its largest once, then each row gathered from that table.

Building, checking and writing a mesh take at most about one block of
memory beyond the mesh's own arrays (and, for the edge count, its key
array): vertices and faces are computed in place in their final arrays, the
degeneracy guard takes the minimum triangle area ``_BLOCK_ROWS`` faces at a
time, from the coordinate columns of the vertex array, the edge keys are
filled ``_BLOCK_ROWS`` faces at a time, and the OBJ writer adds the 1 of the
1-based face indices block by block.
"""

import functools
import json
import math
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import AmplitudeTooLarge, IoFailure
from .profile import geometry_at

PROFILE_CSV_HEADER = "tau,sigma,r,z,phi,H,K,nu3,kappa,q,xi"
_FMT = "%.17g"
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated disc of revolution with a recorded displacement field."""

    vertices: np.ndarray
    faces: np.ndarray
    displacement: np.ndarray
    meta: dict

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        self.displacement.setflags(write=False)

    def edge_count(self):
        # each undirected edge (lo, hi) as the single key lo * n + hi; a sort
        # and a count of the steps between neighbours is far cheaper than
        # np.unique, with or without axis=0.  The keys are filled in place
        # ``_BLOCK_ROWS`` faces at a time, so the one key array is all the
        # memory it takes beyond a block.
        n = self.vertices.shape[0]
        faces = self.faces.astype(np.int64, copy=False)
        keys = np.empty((3, faces.shape[0]), dtype=np.int64)
        for start in range(0, faces.shape[0], _BLOCK_ROWS):
            block = faces[start : start + _BLOCK_ROWS]
            rows = keys[:, start : start + _BLOCK_ROWS]
            for row, (p, q) in zip(rows, ((0, 1), (1, 2), (2, 0))):
                np.minimum(block[:, p], block[:, q], out=row)
                row *= n
                row += np.maximum(block[:, p], block[:, q])
        keys = keys.ravel()
        if keys.size == 0:
            return 0
        keys.sort()
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))

    def euler_characteristic(self):
        return self.vertices.shape[0] - self.edge_count() + self.faces.shape[0]

    def triangle_areas(self):
        return _triangle_areas(self.vertices, self.faces)

    def area(self):
        return float(self.triangle_areas().sum())

    def boundary_vertex_indices(self):
        """Vertices of the last ring (the boundary circle)."""
        n_theta = self.meta["n_theta"]
        return np.arange(self.vertices.shape[0] - n_theta, self.vertices.shape[0])


def _triangle_areas(vertices, faces):
    """Area of each face, bit for bit ``0.5 * |np.cross(p1 - p0, p2 - p0)|``.

    Each coordinate is read as a column of the vertex array and gathered
    once per face column; the cross product and the norm are written out
    in ``np.cross``'s and ``np.linalg.norm``'s order of operations, so every
    area has the very bits of the row-wise formula, and a face with a NaN
    vertex has a NaN area.
    """
    a, b = [], []
    for column in vertices.T:
        p0 = column[faces[:, 0]]
        a.append(column[faces[:, 1]] - p0)
        b.append(column[faces[:, 2]] - p0)
    (ax, ay, az), (bx, by, bz) = a, b
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def _min_triangle_area(mesh):
    """``mesh.triangle_areas().min()``, bit for bit, ``_BLOCK_ROWS`` faces at a time."""
    v, f = mesh.vertices, mesh.faces
    # np.min, not min: a nan in any block propagates, as in the whole array
    return np.min(
        [
            _triangle_areas(v, f[start : start + _BLOCK_ROWS]).min()
            for start in range(0, f.shape[0], _BLOCK_ROWS)
        ]
    )


@dataclass(frozen=True)
class ArtifactEntry:
    kind: str
    format: str
    path: str


@dataclass(frozen=True)
class RunRecord:
    """Re-runnable record of one invocation: inputs, tolerances, outputs."""

    inputs: dict
    tolerances: dict
    derived: dict
    artifacts: list = field(default_factory=list)
    version: str = __version__

    def to_dict(self):
        return asdict(self)


def _disc_faces(n_theta, n_rings):
    """Apex fan, then two triangles per quad ring by ring, as int64 rows.

    Quad j between rings a and b = a + n_theta gives (a+j, b+j, b+jn) and
    (a+j, b+jn, a+jn) with jn = (j + 1) mod n_theta, in that order.  Every
    column is written in place into the one (n_faces, 3) array.
    """
    j = np.arange(n_theta, dtype=np.int64)
    jn = (j + 1) % n_theta
    faces = np.empty((n_theta * (2 * n_rings - 1), 3), dtype=np.int64)
    faces[:n_theta] = np.stack([np.zeros_like(j), 1 + j, 1 + jn], axis=1)
    # row i of quads holds the 2 n_theta faces between rings i and i + 1
    quads = faces[n_theta:].reshape(n_rings - 1, n_theta, 6)
    a = (1 + n_theta * np.arange(n_rings - 1, dtype=np.int64))[:, None]
    b = a + n_theta
    columns = ((a, j), (b, j), (b, jn), (a, j), (b, jn), (a, jn))
    for k, (ring, col) in enumerate(columns):
        np.add(ring, col, out=quads[..., k])
    return faces


def check_mesh_size(n_theta, n_profile):
    """Raise ValueError unless a disc mesh of this size is well formed."""
    if n_theta < 16:
        raise ValueError("n_theta must be at least 16")
    if n_profile < 2:
        raise ValueError("n_profile must be at least 2 (the apex and one ring)")


def _assemble(curve, n_theta, n_profile, scalar_field, kind, amplitude):
    """Build the disc mesh with normal displacement ``scalar_field``.

    ``scalar_field(taus, phi, thetas)`` maps the profile stations and the
    ring angles to the (n_profile, n_theta) displacement magnitudes; the
    apex takes the value at station 0 and theta = 0.  ``kind`` and the
    ``amplitude`` of the field go into the mesh's ``meta``.
    """
    check_mesh_size(n_theta, n_profile)
    taus = np.linspace(0.0, curve.ell, n_profile)
    r, z, phi = curve.state_at(taus)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    n_rings = n_profile - 1
    verts = np.empty((1 + n_rings * n_theta, 3))
    disp = np.empty(verts.shape[0])
    field = scalar_field(taus, phi, thetas)
    # apex: the exact axis point; its normal is vertical
    apex_disp = field[0, 0]
    verts[0] = (0.0, 0.0, z[0] + apex_disp)
    disp[0] = apex_disp
    d = field[1:]  # (n_rings, n_theta)
    nr = np.sin(phi[1:])[:, None]
    nz = -np.cos(phi[1:])[:, None]
    # the rings are computed in place in the vertex array: x holds the ring
    # radii r + d nr until the radii are checked and turned into x and y
    x, y, zz = np.moveaxis(verts[1:].reshape(n_rings, n_theta, 3), -1, 0)
    np.multiply(d, nr, out=x)
    x += r[1:][:, None]
    min_radius = x.min()
    np.multiply(x, sin_t[None, :], out=y)
    x *= cos_t[None, :]
    np.multiply(d, nz, out=zz)
    zz += z[1:][:, None]
    disp[1:].reshape(n_rings, n_theta)[...] = d
    mesh = SurfaceMesh(
        vertices=verts,
        faces=_disc_faces(n_theta, n_rings),
        displacement=disp,
        meta={
            "kind": kind,
            "c_o": curve.params.c_o,
            "z_o": curve.params.z_o,
            "ell": curve.ell,
            "n_theta": n_theta,
            "n_profile": n_profile,
            "amplitude": amplitude,
        },
    )
    r_b = float(r[-1])
    # folding through the axis makes rings collapse or invert before any
    # individual triangle area gets small, so guard the radii as well
    if min_radius <= 0.0 or _min_triangle_area(mesh) < 1e-12 * r_b * r_b:
        raise AmplitudeTooLarge(
            "displacement degenerates the mesh (ring through the axis or "
            "triangle area below threshold)"
        )
    return mesh


def _require_finite_amplitude(amplitude):
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")


def revolve(curve, n_theta, n_profile=200):
    """Triangulated surface of revolution of the profile curve.

    Vertex count is (n_profile - 1) * n_theta + 1: one apex plus one ring
    per resampled interior/boundary station.
    """
    zero = lambda taus, phi, thetas: np.zeros((taus.size, thetas.size))
    return _assemble(curve, n_theta, n_profile, zero, "revolve", 0.0)


def branch_linear_mesh(sigma0, s, n_theta, n_profile=200):
    """First-order symmetry-breaking perturbation of the tangential disc.

    Vertices move by s * sin(phi) * cos(theta) along the normal: the first
    angular mode built on the vertical velocity of the generating curve.
    The apex and the boundary ring carry zero displacement (sin(phi)
    vanishes at both ends), so the boundary circle is pinned exactly.
    """
    _require_finite_amplitude(s)
    fieldfun = lambda taus, phi, thetas: (
        s * np.sin(phi)[:, None] * np.cos(thetas)[None, :]
    )
    return _assemble(
        sigma0.curve, n_theta, n_profile, fieldfun, "branch_linear", float(s)
    )


def family_linear_mesh(sigma0, lin, t, n_theta, n_profile=200):
    """First-order axisymmetric family perturbation with displacement t * h."""
    _require_finite_amplitude(t)
    fieldfun = lambda taus, phi, thetas: np.broadcast_to(
        t * np.asarray(lin.h_at(taus), dtype=float)[:, None], (taus.size, thetas.size)
    )
    return _assemble(
        sigma0.curve, n_theta, n_profile, fieldfun, "family_linear", float(t)
    )


def profile_table(curve, n=None):
    """Columns of the profile CSV contract as a dict of arrays."""
    if n is None:
        taus = np.concatenate(([0.0], curve.taus)) if curve.taus[0] > 0 else curve.taus
    else:
        taus = np.linspace(0.0, curve.ell, n)
    r, z, phi = curve.state_at(taus)
    g = geometry_at(curve, taus)
    return {
        "tau": taus,
        "sigma": curve.ell - taus,
        "r": r,
        "z": z,
        "phi": phi,
        "H": g.H,
        "K": g.K,
        "nu3": g.nu3,
        "kappa": g.kappa,
        "q": g.q,
        "xi": g.xi,
    }


def export_csv(path, header, columns, kind):
    """CSV of equal-length columns under ``header``; empty columns give the header."""
    rows = np.column_stack([np.atleast_1d(col) for col in columns])
    row = ",".join([_FMT] * rows.shape[1]) + "\n"
    _write_rows(path, header + "\n", [(row, rows, 0)])
    return ArtifactEntry(kind=kind, format="csv", path=str(path))


def export_profile_csv(curve, path, n=None):
    table = profile_table(curve, n=n)
    columns = [table[c] for c in PROFILE_CSV_HEADER.split(",")]
    return export_csv(path, PROFILE_CSV_HEADER, columns, "profile")


def read_profile_csv(path):
    """Round-trip reader for the profile CSV contract."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != PROFILE_CSV_HEADER:
            raise IoFailure(f"unexpected profile CSV header: {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header.split(","))}


def export_mesh_obj(mesh, path):
    vertex = "v " + " ".join([_FMT] * 3) + "\n"
    faces = ("f %d %d %d\n", mesh.faces, 1)
    _write_rows(path, "", [(vertex, mesh.vertices, 0), faces])
    return ArtifactEntry(kind="mesh", format="obj", path=str(path))


def read_mesh_obj(path):
    """Round-trip reader for the v/f OBJ contract."""
    verts = []
    faces = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def export_json(obj, path):
    payload = obj.to_dict() if hasattr(obj, "to_dict") else obj
    _write_rows(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ArtifactEntry(kind="record", format="json", path=str(path))


def _write_rows(path, head, sections=()):
    """Write ``head``, then the rows of each (row template, 2-D array, offset).

    A row template is literal text around one conversion per column of the
    array, all of them ``%.17g`` or all ``%d``.  Rows go out ``_BLOCK_ROWS``
    at a time: ``_encode_rows`` turns a block, plus the section's integer
    ``offset`` when it is not 0, into the very bytes that ``%`` of the
    template gives on each row's values as Python numbers, so neither the
    file's text nor a shifted copy of the array is ever held in memory
    whole.  The digits are computed in numpy (see ``_encode_floats``); only
    zeros, |x| outside [1e-4, 1e17) and non-finite values go through ``%``,
    one value at a time.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(head.encode("ascii"))
            for row, array, offset in sections:
                layout = _row_layout(row)
                for start in range(0, array.shape[0], _BLOCK_ROWS):
                    block = array[start : start + _BLOCK_ROWS]
                    if offset:
                        block = block + offset
                    fh.write(_encode_rows(layout, block))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _row_layout(row):
    """(conversion, head, tails) of a row template.

    ``head`` is the text before the first conversion, and row j of the
    uint8 matrix ``tails`` the text after conversion j, NUL-padded.
    """
    parts = re.split(r"(%\.17g|%d)", row)
    literals, conversions = parts[::2], set(parts[1::2])
    if len(conversions) != 1 or any("%" in text for text in literals):
        raise ValueError(f"row template {row!r} needs one kind of conversion")
    tails = np.zeros((len(literals) - 1, max(map(len, literals[1:]))), np.uint8)
    for tail, text in zip(tails, literals[1:]):
        tail[: len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
    return conversions.pop(), literals[0].encode("ascii"), tails


def _encode_rows(layout, block):
    """The bytes of the template's ``%`` on each row of the 2-D ``block``.

    Each row is laid out in a row of a NUL-padded uint8 matrix: the head,
    then each field followed by its tail; the NULs are dropped from the
    whole block at once.
    """
    conversion, head, tails = layout
    n, k = block.shape
    if k != tails.shape[0]:
        raise ValueError(f"{k} values per row for {tails.shape[0]} conversions")
    encode = _encode_floats if conversion == _FMT else _encode_ints
    fields = encode(block.ravel()).reshape(n, k, -1)
    width = fields.shape[2]
    rows = np.empty((n, len(head) + k * (width + tails.shape[1])), np.uint8)
    rows[:, : len(head)] = np.frombuffer(head, np.uint8)
    cells = rows[:, len(head) :].reshape(n, k, -1)
    cells[:, :, :width] = fields
    cells[:, :, width:] = tails
    del fields, cells
    return rows.tobytes().translate(None, b"\0")


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _quad(text):
    """A string of at most 4 characters as the little-endian uint32 of its bytes."""
    return int(np.frombuffer(text.encode("ascii").ljust(4, b"\0"), "<u4")[0])


class _Tables:
    """The encoders' lookup tables.

    ``_tables()`` builds the one instance on the first CSV or OBJ write:
    building them at import would cost every process about 0.6 MB of
    resident memory, also those that write no rows.
    """

    def __init__(self):
        # the 4 ASCII digits of each of 0 ... 9999, zero-padded
        chars = np.stack(
            np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
            axis=-1,
        ).reshape(10000, 4)
        nonzero = chars != 48
        # those digits as one little-endian uint32, leading zeros kept or NUL
        # (all four of 0); the groups of an integer: leading ones from the
        # second, the others from the first at 10**4 + the group
        self.digits4 = chars.view("<u4").ravel()
        leading = chars * np.logical_or.accumulate(nonzero, axis=1)
        self.leading4 = leading.view("<u4").ravel()
        self.groups4 = np.concatenate([self.leading4, self.digits4])
        # the index of the last nonzero digit of each group; for 0 one so low
        # that its byte, 4 per group further on, is below every digit's
        self.last4 = (3 - np.argmax(nonzero[:, ::-1], axis=1)).astype(np.int8)
        self.last4[0] = -32
        # 10**k is a double exactly for k <= 22, with its Veltkamp halves,
        # and an int64 for k <= 17
        self.pow10 = np.array([float(10**k) for k in range(23)])
        self.pow10_hi, self.pow10_lo = _split(self.pow10)
        self.int_pow10 = np.array([10**k for k in range(18)], dtype=np.int64)
        # row c keeps bytes 0 ... c of 4 little-endian uint64, the rest NUL
        keep = np.arange(32) <= np.arange(32)[:, None]
        self.keep = np.where(keep, 255, 0).astype(np.uint8).view("<u8")
        # bytes 0-7 of a fixed-notation float with exponent X, at
        # 2 X + 8 + (x < 0): NUL, NUL, the sign and, when X < 0, "0." and
        # -X - 1 zeros
        self.float_head = np.frombuffer(
            b"".join(
                (b"\0\0" + sign + (b"0.000"[: 1 - X] if X < 0 else b"")).ljust(8, b"\0")
                for X in range(-4, 17)
                for sign in (b"\0", b"-")
            ),
            "<u8",
        )


_tables = functools.cache(_Tables)


def _encode_floats(x):
    """(x.size, 26) uint8: row i is ``'%.17g' % x[i]``, NUL-padded.

    ``%.17g`` prints v in fixed notation when the exponent X of v rounded
    to 17 significant digits lies in [-4, 16], from the 17-digit significand
    D = |v| 10**(16 - X) rounded half to even.  For the estimate
    e = floor(log10 |v|), 10**(16 - e) is an exact double and Dekker's
    product gives |v| 10**(16 - e) = hi + lo exactly.  Where that lies in
    [1e16, 1e17), e = X, hi is an even integer (it is at least 2**53) and
    D = hi + rint(lo), rint rounding half to even.  Zeros, |v| outside
    [1e-4, 1e17), non-finite values and missed estimates are formatted by
    ``%`` itself.

    A row is built as 4 little-endian uint64 of 8 bytes: the sign and a
    "0.000" head, then the digits of D with a 0 digit put after its X + 1
    integer digits, which becomes the "."; the bytes after the fraction's
    last nonzero digit, or after the integer part when the fraction is all
    zeros, are set to NUL.
    """
    t = _tables()
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    np.minimum(e, 16, out=e)
    k = 16 - e
    a_hi, a_lo = _split(ax)
    s_hi, s_lo = t.pow10_hi[k], t.pow10_lo[k]
    hi = ax * t.pow10[k]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # temporaries go as soon as they are used: a block's peak memory is bounded
    del ax, k, a_hi, a_lo, s_hi, s_lo
    fast &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    del hi, lo
    # d >= 10**17 marks an estimate one too low; a carry to exactly 10**17
    # never happens here: below each power of ten the nearest double lies
    # more than 8 units of the 17th digit away
    fast &= d < 10**17
    slow = np.flatnonzero(~fast)
    d[slow] = 10**16
    e[slow] = 0
    # n is d with a 0 digit put after its X + 1 integer digits, d itself
    # when X < 0.  Bytes 8-11 take its digits above 10**16 without leading
    # zeros, bytes 12-27 the 16 below, so byte 10 + j holds digit j of its
    # 18; ``last`` is the byte of the last nonzero one
    p = t.int_pow10[np.minimum(16 - e, 17)]
    n = d + 9 * (d // p) * p
    del d, p
    lanes = np.zeros((x.size, 4), "<u8")
    quads = lanes.view("<u4")
    lanes[:, 0] = t.float_head[2 * e + 8 + (x < 0.0)]
    group = n // 10**16
    n -= group * 10**16
    quads[:, 2] = t.leading4[group]
    last = t.last4[group] + 8
    for col, place in enumerate((10**12, 10**8, 10**4, 1), start=3):
        group = n // place
        n -= group * place
        quads[:, col] = t.digits4[group]
        np.maximum(last, t.last4[group] + 4 * col, out=last)
    del n, group
    # the "." over the 0 digit; NUL after the fraction's last nonzero digit,
    # or after the integer part when the fraction is all zeros
    chars = lanes.view(np.uint8)
    point = np.flatnonzero(e >= 0)
    chars[point, e[point] + 11] = 46  # "."
    lanes &= np.take(t.keep, np.maximum(last, e + 10), axis=0)
    if slow.size:
        text = b"".join(
            b"\0\0" + (_FMT % v).encode("ascii").ljust(30, b"\0")
            for v in x[slow].tolist()
        )
        chars[slow] = np.frombuffer(text, np.uint8).reshape(-1, 32)
    return chars[:, 2:28]


def _encode_ints(v):
    """(v.size, width) uint8: row i is ``'%d' % v[i]``, NUL-padded.

    The width is 4 bytes per digit group of the largest magnitude, plus 4
    for a sign when a value is negative.  When the values span no more
    integers than there are values, as the indices of a block of faces do,
    the integers from the least to the largest are encoded once, which
    gives the same width, and each row is gathered from that table as one
    fixed-width record.
    """
    v = np.asarray(v, dtype=np.int64)
    if v.size:
        lo, hi = int(v.min()), int(v.max())
        # Python integers: the span of [-2**63, 2**63 - 1] overflows int64
        if hi - lo < v.size:
            table = _encode_int_digits(lo + np.arange(hi - lo + 1, dtype=np.int64))
            records = table.view(f"V{table.shape[1]}").ravel()
            return records[v - lo].view(np.uint8).reshape(v.size, -1)
    return _encode_int_digits(v)


def _encode_int_digits(v):
    """``_encode_ints`` of the int64 array ``v``, digit group by digit group."""
    groups4 = _tables().groups4
    mag = np.abs(v).astype(np.uint64)  # 2**63 for the most negative int64 too
    count = -(-len(str(int(mag.max(initial=0)))) // 4)
    sign = int((v < 0).any())
    quads = np.zeros((v.size, sign + count), "<u4")
    if sign:
        quads[:, 0] = np.where(v < 0, _quad("\0\0\0-"), 0)
    for g in range(count):
        q = mag // np.uint64(10 ** (4 * (count - 1 - g)))
        quads[:, sign + g] = groups4[np.where(q < 10**4, q, q % 10**4 + 10**4)]
    units = quads[:, -1]
    units[v == 0] = _quad("\0\0\x000")
    return quads.view(np.uint8)
