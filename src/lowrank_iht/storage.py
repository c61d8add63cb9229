"""Serialization: a flat binary container for design/observation instances.

Container layout (little-endian):
    magic  b"TRCM"
    u32    version (currently 1)
    u32    n
    u32    d
    n*d*d  complex entries as (re, im) f64 pairs, row-major, matrix by matrix
    n      observation f64 values (optional block; presence inferred from size)
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .trace_model import DesignBatch, Observations

__all__ = [
    "TRCM_MAGIC",
    "TRCM_VERSION",
    "save_instance",
    "load_instance",
]

TRCM_MAGIC = b"TRCM"
TRCM_VERSION = 1
_HEADER = struct.Struct("<4sIII")


def save_instance(path, batch: DesignBatch, observations: Observations | None = None):
    """Write a design batch (and optionally its observations) to ``path``."""
    if observations is not None and observations.n != batch.n:
        raise ValueError("observation count does not match design batch")
    payload = np.ascontiguousarray(batch.matrices, dtype="<c16").tobytes()
    blob = _HEADER.pack(TRCM_MAGIC, TRCM_VERSION, batch.n, batch.dim) + payload
    if observations is not None:
        blob += np.ascontiguousarray(observations.values, dtype="<f8").tobytes()
    Path(path).write_bytes(blob)


def load_instance(path):
    """Read a container written by :func:`save_instance`.

    Returns ``(DesignBatch, Observations | None)``. Generation-time metadata
    (noise_std, realized noise) is not stored in the container.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated container")
    magic, version, n, d = _HEADER.unpack_from(blob)
    if magic != TRCM_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != TRCM_VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    design_bytes = 16 * n * d * d
    obs_bytes = 8 * n
    body = len(blob) - _HEADER.size
    if body == design_bytes:
        has_obs = False
    elif body == design_bytes + obs_bytes:
        has_obs = True
    else:
        raise ValueError(f"{path}: container size {body} does not match header (n={n}, d={d})")
    mats = np.frombuffer(blob, dtype="<c16", count=n * d * d,
                         offset=_HEADER.size).reshape(n, d, d)
    if np.all(mats.imag == 0.0):
        batch = DesignBatch(mats.real.copy())
    else:
        batch = DesignBatch(mats.copy())
    obs = None
    if has_obs:
        values = np.frombuffer(blob, dtype="<f8", count=n,
                               offset=_HEADER.size + design_bytes)
        obs = Observations(values=values.copy())
    return batch, obs
