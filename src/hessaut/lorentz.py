"""The even unimodular Lorentzian lattice L of signature (1,25).

L is the orthogonal sum of the (negative definite) Leech lattice and a
hyperbolic plane U with isotropic generators f, g pairing to 1. A vector
is written (lambda, m, n) for lambda + m*f + n*g. Leech roots are the
norm -2 vectors (lambda, 1, -1 - <lambda,lambda>/2); the Weyl vector
(0,0,1) pairs to 1 with every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import leech
from .checks import certify
from .leech import LeechVector


@dataclass(frozen=True)
class LorentzVector:
    lam: LeechVector
    m: int
    n: int

    def __add__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(leech.vadd(self.lam, other.lam), self.m + other.m, self.n + other.n)

    def __sub__(self, other: "LorentzVector") -> "LorentzVector":
        return LorentzVector(leech.vsub(self.lam, other.lam), self.m - other.m, self.n - other.n)

    def __neg__(self) -> "LorentzVector":
        return LorentzVector(leech.vscale(-1, self.lam), -self.m, -self.n)

    def scaled(self, c: int) -> "LorentzVector":
        return LorentzVector(leech.vscale(c, self.lam), c * self.m, c * self.n)

    def raw(self) -> list[int]:
        """26 integer coordinates: the 24 Leech slots followed by m, n."""
        return list(self.lam) + [self.m, self.n]


ZERO = LorentzVector(leech.ZERO, 0, 0)
F = LorentzVector(leech.ZERO, 1, 0)
G = LorentzVector(leech.ZERO, 0, 1)


def bilinear(a: LorentzVector, b: LorentzVector) -> int:
    """<lam_a, lam_b> + m_a n_b + n_a m_b."""
    d = leech.raw_dot(a.lam, b.lam)
    if d % 8:
        raise ValueError("Leech parts must pair integrally")
    return -d // 8 + a.m * b.n + a.n * b.m


def leech_root(lam: LeechVector) -> LorentzVector:
    """The Leech root attached to a lattice vector."""
    if not leech.contains(lam):
        raise ValueError("Leech roots require a Leech lattice member")
    r = LorentzVector(tuple(lam), 1, -1 + leech.norm(lam) // 2)
    certify(bilinear(r, r) == -2, "a Leech root must have norm -2")
    return r


def is_leech_root(v: LorentzVector) -> bool:
    return (
        v.m == 1
        and leech.contains(v.lam)
        and v.n == -1 + leech.norm(v.lam) // 2
    )


def weyl_vector() -> LorentzVector:
    return G


def root_pairing(r: LorentzVector, rp: LorentzVector) -> int:
    """Pairing of two Leech roots, cross-checked against the norm rule.

    For distinct roots the pairing is 0 when the difference of the Leech
    parts has norm 4 and 1 when it has norm 6; a mismatch between the
    direct value and the rule signals a bug.
    """
    if not (is_leech_root(r) and is_leech_root(rp)):
        raise ValueError("root_pairing expects Leech roots")
    value = bilinear(r, rp)
    diff = leech.vsub(r.lam, rp.lam)
    cls = leech.shape_class(diff)
    rule = {"zero": -2, "norm4": 0, "norm6": 1}.get(cls)
    certify(rule in (None, value), f"pairing {value} disagrees with the norm rule {rule}")
    return value
