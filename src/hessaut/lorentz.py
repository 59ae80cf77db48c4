"""The even unimodular Lorentzian lattice L of signature (1,25).

L is the orthogonal sum of the (negative definite) Leech lattice and a
hyperbolic plane U with isotropic generators f, g pairing to 1. A vector
is written (lambda, m, n) for lambda + m*f + n*g. Leech roots are the
norm -2 vectors (lambda, 1, -1 - <lambda,lambda>/2); the Weyl vector
(0,0,1) pairs to 1 with every one of them.
"""

from __future__ import annotations

from . import leech
from .checks import certify
from .leech import LeechVector


class LorentzVector:
    """lam + m f + n g; equal and hashed as the triple (lam, m, n)."""

    __slots__ = ("lam", "m", "n")

    def __init__(self, lam: LeechVector, m: int, n: int):
        self.lam, self.m, self.n = lam, m, n

    def __eq__(self, other):
        if other.__class__ is not LorentzVector:
            return NotImplemented
        return (self.lam, self.m, self.n) == (other.lam, other.m, other.n)

    def __hash__(self) -> int:
        return hash((self.lam, self.m, self.n))

    def __add__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(leech.vadd(self.lam, other.lam), self.m + other.m, self.n + other.n)

    def raw(self) -> list[int]:
        """26 integer coordinates: the 24 Leech slots followed by m, n."""
        return list(self.lam) + [self.m, self.n]


G = LorentzVector(leech.ZERO, 0, 1)


def bilinear(a: LorentzVector, b: LorentzVector) -> int:
    """<lam_a, lam_b> + m_a n_b + n_a m_b."""
    d = leech.raw_dot(a.lam, b.lam)
    if d % 8:
        raise ValueError("Leech parts must pair integrally")
    return -d // 8 + a.m * b.n + a.n * b.m


def leech_root(lam: LeechVector) -> LorentzVector:
    """The Leech root attached to a lattice vector, tested for membership once."""
    if not leech.contains(lam):
        raise ValueError("Leech roots require a Leech lattice member")
    r = LorentzVector(tuple(lam), 1, -1 + leech.raw_dot(lam, lam) // 8 // 2)
    certify(bilinear(r, r) == -2, "a Leech root must have norm -2")
    return r


def weyl_vector() -> LorentzVector:
    return G

