"""Cyclic argument rotation and mean-type mappings built from it.

Index convention: positions are 1-based in ``sigma``/``sigma_pow`` (the
arithmetic is exact integer work, no floats involved), 0-based in the
vector helpers.  ``sigma`` sends 1 to n and every other k to k - 1;
``sigma_pow`` is its i-th iterate, with negative i meaning the inverse
rotation.
"""

from __future__ import annotations

from typing import Sequence

from .means import Mean


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
    open; shift 0 with a pinned arity is a plain arity pin.  A fixed-arity
    base takes exactly its arity, so any other ``arity`` is an error here.
    """

    __slots__ = ("base", "shift")

    def __init__(self, base: Mean, shift: int, arity: int | None = None):
        if base.arity is not None and arity not in (None, base.arity):
            raise ValueError(f"mean {base.label!r} has arity {base.arity}, not {arity}")
        super().__init__(
            base.domain,
            arity=base.arity if arity is None else arity,
            label=f"{base.label}<{shift}>" if shift else base.label,
        )
        self.base = base
        self.shift = shift

    def _evaluate(self, pts):
        # the points are checked: floats, as many as the base takes, and
        # inside the domain the base shares
        return self.base._evaluate(list(rotated(pts, self.shift)))


class MeanTypeMapping:
    """A vector of means over one interval, applied synchronously.

    The components are all a mapping is: ``rotation_base`` tells from
    them whether it is the rotation family of one mean, and iteration
    code runs the rotation family of a generalized quasi-arithmetic mean
    as the fused ``cyclic_gauss`` kernel on that mean's program.
    """

    __slots__ = ("components", "domain", "arity", "label")

    def __init__(self, components: Sequence[Mean], *, label: str | None = None):
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

    def apply(self, xs: Sequence[float]) -> tuple:
        """One synchronous step: every component sees the same input,
        checked once here and handed to each in a list of its own."""
        pts = [float(x) for x in xs]
        if len(pts) != self.arity:
            raise ValueError(f"expected {self.arity} points, got {len(pts)}")
        self.domain.check_points(pts)
        return tuple(c._evaluate(list(pts)) for c in self.components)

    def __repr__(self):
        return f"<MeanTypeMapping {self.label!r}, arity {self.arity}>"


def cyclic_mapping(mean: Mean, arity: int | None = None) -> MeanTypeMapping:
    """The mapping whose component i rotates the arguments of ``mean``
    by i before evaluating, for i = 0..n-1.

    A variadic mean needs an explicit arity; a fixed-arity mean fixes n
    itself (a matching explicit arity is accepted, another is an error of
    ``PermutedMean``).
    """
    n = mean.arity if arity is None else arity
    if n is None:
        raise ValueError("a variadic mean needs an explicit arity")
    # rotating a variadic mean still needs fixed-length vectors here, so
    # every rotation pins the arity
    comps = [fixed_arity(mean, n), *(PermutedMean(mean, i, n) for i in range(1, n))]
    return MeanTypeMapping(comps, label=f"cyclic[{mean.label}]")


def rotation_base(components: Sequence[Mean]) -> Mean | None:
    """The mean M whose rotations 0..n-1 the n components are, or None:
    component 0 is M, of arity n, and component i is
    ``PermutedMean(M, i, n)``, the family ``cyclic_mapping(M)`` builds."""
    base, n = components[0], len(components)
    if base.arity == n and all(isinstance(c, PermutedMean) and c.base is base and c.shift == i
                               for i, c in enumerate(components[1:], 1)):
        return base
    return None


def fixed_arity(mean: Mean, n: int) -> Mean:
    """The mean itself if its arity is already n, a variadic mean pinned
    to n arguments otherwise; ``PermutedMean`` refuses a fixed arity that
    is not n."""
    return mean if mean.arity == n else PermutedMean(mean, 0, n)
