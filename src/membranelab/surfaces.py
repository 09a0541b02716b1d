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
every write failure raised as IoFailure.
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
        e = np.concatenate(
            [self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]
        )
        e.sort(axis=1)
        return np.unique(e, axis=0).shape[0]

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


def _mesh_fields(curve, n_theta, n_profile):
    taus = np.linspace(0.0, curve.ell, n_profile)
    r, z, phi = curve.state_at(taus)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return taus, r, z, phi, thetas


def _assemble(curve, n_theta, n_profile, scalar_field, meta):
    """Build the disc mesh with normal displacement ``scalar_field(i, theta)``.

    ``scalar_field`` maps (profile index array, theta array) broadcast to the
    per-vertex displacement magnitude.
    """
    taus, r, z, phi, thetas = _mesh_fields(curve, n_theta, n_profile)
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    n_rings = n_profile - 1
    verts = np.empty((1 + n_rings * n_theta, 3))
    disp = np.empty(verts.shape[0])
    # apex: the exact axis point; its normal is vertical
    apex_disp = scalar_field(np.array([0]), np.array([0.0]))[0, 0]
    verts[0] = (0.0, 0.0, z[0] + apex_disp)
    disp[0] = apex_disp
    idx = np.arange(1, n_profile)
    d = scalar_field(idx, thetas)  # (n_rings, n_theta)
    nr = np.sin(phi[idx])[:, None]
    nz = -np.cos(phi[idx])[:, None]
    rr = r[idx][:, None] + d * nr
    zz = z[idx][:, None] + d * nz
    verts[1:, 0] = (rr * cos_t[None, :]).ravel()
    verts[1:, 1] = (rr * sin_t[None, :]).ravel()
    verts[1:, 2] = np.broadcast_to(zz, (n_rings, n_theta)).ravel()
    disp[1:] = d.ravel()

    faces = []
    ring0 = 1
    for j in range(n_theta):
        faces.append((0, ring0 + j, ring0 + (j + 1) % n_theta))
    for i in range(n_rings - 1):
        a = 1 + i * n_theta
        b = 1 + (i + 1) * n_theta
        for j in range(n_theta):
            jn = (j + 1) % n_theta
            faces.append((a + j, b + j, b + jn))
            faces.append((a + j, b + jn, a + jn))
    mesh = SurfaceMesh(
        vertices=verts,
        faces=np.asarray(faces, dtype=np.int64),
        displacement=disp,
        meta=meta,
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


def revolve(curve, n_theta, n_profile=200):
    """Triangulated surface of revolution of the profile curve.

    Vertex count is (n_profile - 1) * n_theta + 1: one apex plus one ring
    per resampled interior/boundary station.
    """
    if n_theta < 16:
        raise ValueError("n_theta must be at least 16")
    meta = {
        "kind": "revolve",
        "c_o": curve.params.c_o,
        "z_o": curve.params.z_o,
        "ell": curve.ell,
        "n_theta": n_theta,
        "n_profile": n_profile,
        "amplitude": 0.0,
    }
    zero = lambda idx, thetas: np.zeros((idx.size, thetas.size))
    return _assemble(curve, n_theta, n_profile, zero, meta)


def branch_linear_mesh(sigma0, s, n_theta, n_profile=200):
    """First-order symmetry-breaking perturbation of the tangential disc.

    Vertices move by s * sin(phi) * cos(theta) along the normal: the first
    angular mode built on the vertical velocity of the generating curve.
    The apex and the boundary ring carry zero displacement (sin(phi)
    vanishes at both ends), so the boundary circle is pinned exactly.
    """
    curve = sigma0.curve
    taus = np.linspace(0.0, curve.ell, n_profile)
    _, _, phi = curve.state_at(taus)
    zs = np.sin(phi)
    meta = {
        "kind": "branch_linear",
        "c_o": curve.params.c_o,
        "z_o": curve.params.z_o,
        "ell": curve.ell,
        "n_theta": n_theta,
        "n_profile": n_profile,
        "amplitude": float(s),
    }
    fieldfun = lambda idx, thetas: s * zs[idx][:, None] * np.cos(thetas)[None, :]
    return _assemble(curve, n_theta, n_profile, fieldfun, meta)


def family_linear_mesh(sigma0, lin, t, n_theta, n_profile=200):
    """First-order axisymmetric family perturbation with displacement t * h."""
    curve = sigma0.curve
    taus = np.linspace(0.0, curve.ell, n_profile)
    h_vals = np.asarray(lin.h_at(taus), dtype=float)
    meta = {
        "kind": "family_linear",
        "c_o": curve.params.c_o,
        "z_o": curve.params.z_o,
        "ell": curve.ell,
        "n_theta": n_theta,
        "n_profile": n_profile,
        "amplitude": float(t),
    }
    fieldfun = lambda idx, thetas: t * np.broadcast_to(
        h_vals[idx][:, None], (idx.size, thetas.size)
    ).copy()
    return _assemble(curve, n_theta, n_profile, fieldfun, meta)


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
    rows = np.column_stack([np.atleast_1d(col) for col in columns]).tolist()
    lines = [header] + [",".join(_FMT % v for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")
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
    lines = []
    for v in mesh.vertices:
        lines.append("v " + " ".join(_FMT % x for x in v))
    for f in mesh.faces:
        lines.append("f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1))
    _write_text(path, "\n".join(lines) + "\n")
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
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
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


def _write_text(path, text):
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
