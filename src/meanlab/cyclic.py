"""Cyclic argument rotation and mean-type mappings built from it.

``rotated(xs, i)`` is the one statement of the rotation convention: its
entry j is ``xs[(j - i) % n]``, 0-based, for any integer i.  In the
paper's 1-based terms, its entry k is x at sigma^i(k), where sigma sends
1 to n and every other k to k - 1, and a negative i is the inverse
rotation.

``cyclic_mapping(M)`` takes a mean of fixed arity n; ``fixed_arity(M, n)``
is the one way to pin a variadic mean to n arguments first.  Every
mapping ``cyclic_mapping`` builds is a rotation family that
``rotation_base`` recognizes.  A mapping checks a vector as its means
do, with ``means.checked_vector``: the count message names the mapping.
"""

from __future__ import annotations

from typing import Sequence

from .means import Mean, checked_vector


def rotated(xs: Sequence[float], power: int) -> tuple:
    """The vector whose entry j is xs[(j - power) % n], n = len(xs)."""
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

    def checked(self, xs: Sequence[float]) -> list:
        """xs as a list of floats, one per component, every one inside
        the interval, by the means' one ``checked_vector``; ValueError or
        DomainError otherwise."""
        return checked_vector(xs, self.domain, self.arity, self.label)

    def apply(self, xs: Sequence[float]) -> tuple:
        """One synchronous step: every component sees the same input,
        checked once here and handed to each in a list of its own."""
        pts = self.checked(xs)
        return tuple(c._evaluate(list(pts)) for c in self.components)

    def __repr__(self):
        return f"<MeanTypeMapping {self.label!r}, arity {self.arity}>"


def cyclic_mapping(mean: Mean) -> MeanTypeMapping:
    """The mapping whose component i rotates the arguments of ``mean``
    by i before evaluating, for i = 0..n-1, n the arity of ``mean``:
    ``[mean, PermutedMean(mean, 1), ...]``, the family ``rotation_base``
    recognizes.  A variadic mean is an error; pin it first with
    ``fixed_arity(mean, n)``."""
    if mean.arity is None:
        raise ValueError("a variadic mean needs an explicit arity: pin it with fixed_arity")
    comps = [mean, *(PermutedMean(mean, i) for i in range(1, mean.arity))]
    return MeanTypeMapping(comps, label=f"cyclic[{mean.label}]")


def rotation_base(components: Sequence[Mean]) -> Mean | None:
    """The mean M whose rotations 0..n-1 the n components are, or None:
    component 0 is M, of arity n, and component i is
    ``PermutedMean(M, i)``, the family ``cyclic_mapping(M)`` builds."""
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
