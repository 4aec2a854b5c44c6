"""Linear-algebra kernel: subspaces, restricted norms and volumes.

Everything here is plain numpy on small dense matrices.  Subspaces are
carried as orthonormal column frames, alone or stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplitting, DimensionMismatch

FRAME_TOL = 1e-10
ANGLE_FLOOR = 1e-8


@dataclass(frozen=True)
class Subspace:
    """An orthonormal frame spanning a subspace of the ambient chart space.

    frame : (d, dim) array with orthonormal columns.
    """

    frame: np.ndarray

    def __post_init__(self):
        f = np.array(self.frame, dtype=float, copy=True)
        if f.ndim not in (1, 2):
            raise ValueError("frame must be a 2-D array of columns")
        object.__setattr__(self, "frame", _frames(f))

    @property
    def dim(self):
        return self.frame.shape[1]


def _frames(a):
    """(..., d, k) frame stack of a Subspace, a vector or an array of frames.

    Raises ValueError unless every frame has orthonormal columns.
    """
    if isinstance(a, Subspace):
        return a.frame
    f = np.asarray(a, float)
    if f.ndim == 1:
        f = f[:, None]
    g = np.swapaxes(f, -2, -1) @ f
    if not np.allclose(g, np.eye(f.shape[-1]), atol=FRAME_TOL):
        raise ValueError("frame columns must be orthonormal")
    return f


def dot_norms(v):
    """Euclidean norms over the last axis of v, each rounded exactly like
    np.linalg.norm of that one vector (a dot product); norm(axis=-1) sums
    the squares another way and can differ in the last bit."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _onesided(qa, qb):
    # sup over unit u in span(qa) of dist(u, span(qb)):
    # largest singular value of (I - qb qb^T) qa.
    proj = qa - qb @ (np.swapaxes(qb, -2, -1) @ qa)
    if proj.size == 0:
        return np.zeros(proj.shape[:-2])
    return np.linalg.svd(proj, compute_uv=False)[..., 0]


def subspace_distance(a, b):
    """Symmetric sup-distance between two subspaces of the same ambient space.

    max of the two one-sided quantities sup_{unit u in A} dist(u, B) and the
    mirror image; for equal dimensions both sides coincide (largest principal
    angle sine) and the value is a metric on the Grassmannian.

    a, b: Subspaces or (..., d, k) stacks of orthonormal frames, broadcast
    against each other; a float for single frames, else an array.
    """
    a, b = _frames(a), _frames(b)
    if a.shape[-2] != b.shape[-2]:
        raise DimensionMismatch(
            f"ambient dims differ: {a.shape[-2]} vs {b.shape[-2]}")
    dist = np.maximum(_onesided(a, b), _onesided(b, a))
    return float(dist) if dist.ndim == 0 else dist


def restricted_stretch(t, frames, which):
    """Batched largest ("max") or smallest ("min") singular value of t @ frames.

    For one-column frames both are the norm of the image vector.
    """
    return _image_stretch(t @ frames, which)


def _image_stretch(img, which):
    """restricted_stretch from the (..., d, k) images t @ frames."""
    if img.shape[-1] == 1:
        return np.linalg.norm(img[..., 0], axis=-1)
    sv = np.linalg.svd(img, compute_uv=False)
    return sv[..., 0] if which == "max" else sv[..., -1]


def restricted_log_volume(t, frames):
    """Batched log of the volume expansion of t on the span of frames."""
    if frames.shape[-1] == 1:
        return np.log(restricted_stretch(t, frames, "max"))
    img = t @ frames
    g = np.swapaxes(img, -2, -1) @ img
    return 0.5 * np.log(np.clip(np.linalg.det(g), 1e-300, None))


def oblique_components(v, e, f):
    """Split v = v_E + v_F along a (possibly non-orthogonal) splitting.

    Returns (v_e, v_f) as ambient vectors.  v (..., d) broadcasts against
    e and f, Subspaces or (..., d, k) frame stacks.  Raises
    DegenerateSplitting when some joint frame [E | F] is numerically
    rank-deficient (smallest principal angle under the floor).
    """
    v = np.asarray(v, float)
    e, f = _frames(e), _frames(f)
    lead = np.broadcast_shapes(e.shape[:-2], f.shape[:-2])
    joint = np.concatenate([np.broadcast_to(e, lead + e.shape[-2:]),
                            np.broadcast_to(f, lead + f.shape[-2:])], axis=-1)
    if joint.shape[-2] != joint.shape[-1]:
        raise DimensionMismatch(
            f"E (+{e.shape[-1]}) and F (+{f.shape[-1]}) do not fill ambient "
            f"dim {joint.shape[-2]}")
    smallest = np.min(np.linalg.svd(joint, compute_uv=False)[..., -1])
    if smallest < ANGLE_FLOOR:
        raise DegenerateSplitting(
            f"joint frame smallest singular value {smallest:.3e} below floor")
    coeff = np.linalg.solve(joint, v[..., None])
    ke = e.shape[-1]
    return (e @ coeff[..., :ke, :])[..., 0], (f @ coeff[..., ke:, :])[..., 0]

