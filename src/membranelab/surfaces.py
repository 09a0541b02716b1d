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
time, so no file is ever held in memory as text.
"""

import json
import math
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
        # np.unique, with or without axis=0
        n = self.vertices.shape[0]
        a, b, c = self.faces.astype(np.int64, copy=False).T
        keys = np.concatenate(
            [
                np.minimum(p, q) * n + np.maximum(p, q)
                for p, q in ((a, b), (b, c), (c, a))
            ]
        )
        if keys.size == 0:
            return 0
        keys.sort()
        return 1 + int(np.count_nonzero(np.diff(keys)))

    def euler_characteristic(self):
        return self.vertices.shape[0] - self.edge_count() + self.faces.shape[0]

    def triangle_areas(self):
        p = self.vertices
        a = p[self.faces[:, 1]] - p[self.faces[:, 0]]
        b = p[self.faces[:, 2]] - p[self.faces[:, 0]]
        return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)

    def area(self):
        return float(self.triangle_areas().sum())

    def boundary_vertex_indices(self):
        """Vertices of the last ring (the boundary circle)."""
        n_theta = self.meta["n_theta"]
        return np.arange(self.vertices.shape[0] - n_theta, self.vertices.shape[0])


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
        d = asdict(self)
        d["artifacts"] = [
            asdict(a) if isinstance(a, ArtifactEntry) else a for a in self.artifacts
        ]
        return d


def _disc_faces(n_theta, n_rings):
    """Apex fan, then two triangles per quad ring by ring, as int64 rows.

    Quad j between rings a and b = a + n_theta gives (a+j, b+j, b+jn) and
    (a+j, b+jn, a+jn) with jn = (j + 1) mod n_theta, in that order.
    """
    j = np.arange(n_theta, dtype=np.int64)
    jn = (j + 1) % n_theta
    fan = np.stack([np.zeros_like(j), 1 + j, 1 + jn], axis=1)
    a = (1 + n_theta * np.arange(n_rings - 1, dtype=np.int64))[:, None]
    b = a + n_theta
    quads = np.stack([a + j, b + j, b + jn, a + j, b + jn, a + jn], axis=-1)
    return np.concatenate([fan, quads.reshape(-1, 3)])


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
    rr = r[1:][:, None] + d * nr
    zz = z[1:][:, None] + d * nz
    verts[1:, 0] = (rr * cos_t[None, :]).ravel()
    verts[1:, 1] = (rr * sin_t[None, :]).ravel()
    verts[1:, 2] = np.broadcast_to(zz, (n_rings, n_theta)).ravel()
    disp[1:] = d.ravel()
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
    if np.min(rr) <= 0.0 or mesh.triangle_areas().min() < 1e-12 * r_b * r_b:
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
    _write_rows(path, header + "\n", [(row, rows)])
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
    _write_rows(path, "", [(vertex, mesh.vertices), ("f %d %d %d\n", mesh.faces + 1)])
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


def export(artifact, format, path):
    """Dispatching exporter; returns the run-record entry for the file."""
    if format == "csv":
        return export_profile_csv(artifact, path)
    if format == "obj":
        return export_mesh_obj(artifact, path)
    if format == "json":
        return export_json(artifact, path)
    raise IoFailure(f"unsupported export format: {format}")


def _write_rows(path, head, sections=()):
    """Write ``head``, then the rows of each (row template, 2-D array) section.

    Rows go out ``_BLOCK_ROWS`` at a time: a block is formatted by one ``%``
    of the template repeated per row on the block's values as Python
    numbers, so the file is never held in memory as text.
    """
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(head)
            for row, array in sections:
                for start in range(0, array.shape[0], _BLOCK_ROWS):
                    block = array[start : start + _BLOCK_ROWS]
                    fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
