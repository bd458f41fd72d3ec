"""Permutations of the points 1..degree.

Two conventions hold everywhere in this package:

* points are 1-based in every public signature and printed form;
* composition applies the LEFT factor first: ``(a * b)(x) == b(a(x))``.

Internally images are kept 0-based in a read-only numpy array so that the
table layer can index with them directly.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


@lru_cache(maxsize=None)
def _arange(n: int) -> np.ndarray:
    """The read-only identity image array of degree n, shared per degree."""
    arr = np.arange(n, dtype=np.int32)
    arr.setflags(write=False)
    return arr


def _point(pt) -> int:
    """pt as a Python int; a point that is not an integer is refused."""
    try:
        return operator.index(pt)
    except TypeError:
        raise ValueError(f"point {pt!r} is not an integer") from None


def invert(img: np.ndarray) -> np.ndarray:
    """The read-only image array of the inverse of the image array img."""
    inv = np.empty_like(img)
    inv[img] = _arange(img.size)
    inv.setflags(write=False)
    return inv


def conjugate(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The image array of x^-1 * s * x, composed left factor first, as
    the scatter out[x] = x[s]: it sends x(p) to x(s(p)), and no inverse
    is formed. On arrays this small `put` is the cheaper scatter than
    `out[x] = ...`."""
    out = np.empty_like(s)
    out.put(x, x.take(s))
    return out


class Perm:
    __slots__ = ("_img", "_hash")

    def __init__(self, images: Sequence[int]):
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a non-empty sequence")
        if arr.dtype.kind not in "iu":
            raise ValueError("images must be integers")
        n = arr.size
        if arr.min() < 1 or arr.max() > n:
            raise ValueError(f"images must use each of 1..{n} exactly once")
        arr = arr.astype(np.int32) - 1
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        if not seen.all():
            raise ValueError(f"images must use each of 1..{n} exactly once")
        arr.setflags(write=False)
        self._img = arr
        self._hash = None

    # trusted constructor for internal use: arr is a valid 0-based image
    # array that the new Perm takes over; it is made read-only in place, so
    # the caller must pass a fresh array it no longer writes to
    @classmethod
    def _from0(cls, arr: np.ndarray) -> "Perm":
        p = object.__new__(cls)
        arr.setflags(write=False)
        p._img = arr
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls._from0(_arange(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build from disjoint cycles of 1-based points, e.g. [(1, 3), (2, 4)]."""
        if degree < 1:
            raise ValueError("degree must be at least 1")
        img = np.arange(degree, dtype=np.int32)
        used = set()
        for cyc in cycles:
            cyc = [_point(pt) for pt in cyc]
            for pt in cyc:
                if not 1 <= pt <= degree:
                    raise ValueError(f"point {pt} outside 1..{degree}")
                if pt in used:
                    raise ValueError(f"point {pt} appears in more than one cycle")
                used.add(pt)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a - 1] = b - 1
        return cls._from0(img)

    @property
    def degree(self) -> int:
        return self._img.size

    @property
    def images(self) -> tuple:
        """Images of 1..degree, 1-based."""
        return tuple(int(x) + 1 for x in self._img)

    @property
    def img0(self) -> np.ndarray:
        """Read-only 0-based image array (for the table layer)."""
        return self._img

    def __call__(self, point: int) -> int:
        point = _point(point)
        if not 1 <= point <= self._img.size:
            raise ValueError(f"point {point} outside 1..{self._img.size}")
        return int(self._img[point - 1]) + 1

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if other._img.size != self._img.size:
            raise ValueError("degree mismatch in composition")
        return Perm._from0(other._img.take(self._img))

    def inverse(self) -> "Perm":
        return Perm._from0(invert(self._img))

    def __pow__(self, k: int) -> "Perm":
        """k-th power by repeated squaring; negative k inverts first."""
        if not isinstance(k, int):
            return NotImplemented
        base = self.inverse() if k < 0 else self
        k = abs(k)
        cur = base._img
        out = _arange(base._img.size)
        while k:
            if k & 1:
                out = cur.take(out)
            cur = cur.take(cur)
            k >>= 1
        return Perm._from0(out)

    def is_identity(self) -> bool:
        return self._img.tobytes() == _arange(self._img.size).tobytes()

    def cycles(self) -> list:
        """Disjoint cycles (1-based), fixed points omitted, each cycle
        starting at its smallest point, cycles sorted by first point."""
        out = []
        seen = np.zeros(self._img.size, dtype=bool)
        for start in range(self._img.size):
            if seen[start] or self._img[start] == start:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = int(self._img[x])
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        o = 1
        for cyc in self.cycles():
            o = math.lcm(o, len(cyc))
        return o

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self._img.tobytes() == other._img.tobytes()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._img.tobytes())
        return self._hash

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()}, degree={self.degree})"


def commutator(a: Perm, b: Perm) -> Perm:
    """a^-1 * b^-1 * a * b, that is a^-1 * (b^-1 * a * b), composed on the
    image arrays by two scatters with one Perm built: a^-1 * c sends a(p)
    to c(p)."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch in composition")
    out = np.empty_like(a._img)
    out.put(a._img, conjugate(a._img, b._img))
    return Perm._from0(out)
