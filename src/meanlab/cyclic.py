"""Cyclic argument rotation and mean-type mappings built from it.

Index convention: positions are 1-based in ``sigma``/``sigma_pow`` (the
arithmetic is exact integer work, no floats involved), 0-based in the
vector helpers.  ``sigma`` sends 1 to n and every other k to k - 1;
``sigma_pow`` is its i-th iterate, with negative i meaning the inverse
rotation.
"""

from __future__ import annotations

from typing import Sequence

from .generator import GeneratorSystem
from .means import GeneralizedQuasiArithmeticMean, Mean


def _check_position(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= k <= n:
        raise IndexError(f"position {k} is outside 1..{n}")


def sigma(n: int, k: int) -> int:
    """One backward rotation step on positions 1..n."""
    _check_position(n, k)
    return n if k == 1 else k - 1


def sigma_pow(n: int, i: int, k: int) -> int:
    """i-th iterate of sigma; i may be any integer."""
    _check_position(n, k)
    return (k - 1 - i) % n + 1


def rotated(xs: Sequence[float], power: int) -> tuple:
    """The vector with entry k equal to xs at position sigma_pow(power, k)."""
    n = len(xs)
    return tuple(xs[(j - power) % n] for j in range(n))


class PermutedMean(Mean):
    """A mean pre-composed with a cyclic rotation of its arguments.

    ``arity`` pins the number of arguments, which a variadic base leaves
    open; shift 0 with a pinned arity is a plain arity pin.
    """

    __slots__ = ("base", "shift")

    def __init__(self, base: Mean, shift: int, arity: int | None = None):
        super().__init__(
            base.domain,
            arity=base.arity if arity is None else arity,
            label=f"{base.label}<{shift}>" if shift else base.label,
        )
        self.base = base
        self.shift = shift

    def _evaluate(self, pts):
        return self.base(rotated(pts, self.shift))


def permuted_mean(mean: Mean, shift: int) -> Mean:
    """Rotate a mean's arguments, collapsing stacked or trivial rotations
    and keeping a pinned arity."""
    base = mean
    total = shift
    if isinstance(mean, PermutedMean):
        base = mean.base
        total = mean.shift + shift
    if mean.arity is not None:
        total %= mean.arity
    if total == 0 and base.arity == mean.arity:
        return base
    return PermutedMean(base, total, mean.arity)


class MeanTypeMapping:
    """A vector of means over one interval, applied synchronously.

    ``system`` is set (by ``cyclic_mapping``) exactly when the mapping is
    the cyclic rotation family of a generalized quasi-arithmetic mean,
    tape-backed or not; iteration code uses it to run the fused
    ``cyclic_gauss`` kernel on the system's program instead of calling
    the components one by one.
    """

    __slots__ = ("components", "domain", "arity", "label", "system")

    def __init__(self, components: Sequence[Mean], *,
                 system: GeneratorSystem | None = None,
                 label: str | None = None):
        comps = tuple(components)
        if not comps:
            raise ValueError("a mapping needs at least one component")
        n = len(comps)
        domain = comps[0].domain
        for c in comps:
            if c.domain != domain:
                raise ValueError("all components must share one interval")
            if c.arity is not None and c.arity != n:
                raise ValueError(
                    f"component {c.label!r} has arity {c.arity}, expected {n}"
                )
        self.components = comps
        self.domain = domain
        self.arity = n
        self.label = label if label is not None else f"({', '.join(c.label for c in comps)})"
        self.system = system

    def apply(self, xs: Sequence[float]) -> tuple:
        """One synchronous step: every component sees the same input."""
        pts = [float(x) for x in xs]
        if len(pts) != self.arity:
            raise ValueError(f"expected {self.arity} points, got {len(pts)}")
        return tuple(c(pts) for c in self.components)

    def __call__(self, xs: Sequence[float]) -> tuple:
        return self.apply(xs)

    def __repr__(self):
        fused = "fused" if self.system is not None else "generic"
        return f"<MeanTypeMapping {self.label!r}, arity {self.arity}, {fused}>"


def cyclic_mapping(mean: Mean, arity: int | None = None) -> MeanTypeMapping:
    """The mapping whose component i rotates the arguments of ``mean``
    by i before evaluating, for i = 0..n-1.

    A variadic mean needs an explicit arity; a fixed-arity mean fixes n
    itself (a matching explicit arity is accepted).
    """
    if mean.arity is not None:
        if arity is not None and arity != mean.arity:
            raise ValueError(
                f"mean {mean.label!r} has arity {mean.arity}, not {arity}"
            )
        n = mean.arity
    else:
        if arity is None:
            raise ValueError("a variadic mean needs an explicit arity")
        n = arity
        if n < 1:
            raise ValueError("arity must be at least 1")
    # rotating a variadic mean still needs fixed-length vectors here, so
    # pin the arity first; every rotation keeps the pin
    pinned = fixed_arity(mean, n)
    comps = [permuted_mean(pinned, i) for i in range(n)]
    system = mean.system if isinstance(mean, GeneralizedQuasiArithmeticMean) else None
    return MeanTypeMapping(comps, system=system, label=f"cyclic[{mean.label}]")


def fixed_arity(mean: Mean, n: int) -> Mean:
    """The mean itself if its arity is already n, a variadic mean pinned
    to n arguments otherwise; mismatched fixed arities are an error."""
    if mean.arity == n:
        return mean
    if mean.arity is not None:
        raise ValueError(f"mean {mean.label!r} has arity {mean.arity}, not {n}")
    return PermutedMean(mean, 0, n)
