"""Oracle gate of the Gauss stop: limits against a 40-digit reference.

Each orbit ends on the first of the gap, stall and Shanks tests of
``kernels.orbit``, and its limit is the midpoint of the last
bracket or the Shanks estimate.  Both are checked here against the
benchmark's independent mpmath oracle (``perfbench/oracle.py``, the
quasi-arithmetic mean of f1+...+fn, which the paper proves is the
limit), for orbits of 2, 3 and 5 members on (0.1 s, 5 s) for scales s
from 1e-6 to 1e12, wherever the generators are finite there.  The fused
orbit over the member matrix and the generic orbit over the mapping's
components must end alike, bit for bit.

Where one member dominates the others (x, x^3 away from s = 1), the
cyclic mapping is close to a rotation of the coordinates and contracts
by a factor near 1 a step; log(x), exp(x) contracts slowly too.  An
orbit there may use up its budget; it must never end on a wrong limit
instead.  Such an orbit also drifts: each inner solve stops at a 1e-12
relative residual, so over hundreds of steps its limit moves off the
start's reference by more than 1e-10.  There the stop's own error is
measured against the reference limit of the iterate it stopped at, and
the start's reference bounds the answer at the benchmark's 1e-7.
"""

from pathlib import Path

import pytest

from meanlab import (
    ConvergenceError,
    GeneralizedQuasiArithmeticMean,
    Generator,
    GeneratorSystem,
    Interval,
    MeanTypeMapping,
    PermutedMean,
    cyclic_mapping,
    gauss_iterate,
)
from meanlab.cyclic import rotation_base
from meanlab.interval import seeded_rng

ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-10
SAMPLES = 4
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12)

# system -> (scales at which every orbit converges and meets REL_TOL
# against the start's reference, scales at which it contracts so slowly
# that an orbit may use up the default budget of 500 steps); exp
# overflows beyond s = 1e2
SYSTEMS = {
    "x,x^3": ((1.0,), (1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12)),
    "x,x^2,x^3": ((1.0,), (1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12)),
    "x^3,2*x^3": (SCALES, ()),
    "log(x),exp(x)": ((), (1e-6, 1e-3, 1.0, 1e2)),
    "x,2*x,x^2,x^3,2*x^3": (SCALES, ()),
}
GRID = [(spec, scale, scale in tame) for spec, (tame, slow) in SYSTEMS.items()
        for scale in sorted(tame + slow)]


@pytest.fixture(scope="module")
def oracle():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT))
        from perfbench import oracle
    return oracle


@pytest.mark.parametrize("spec,scale,tame", GRID,
                         ids=[f"{spec}-{scale:g}" for spec, scale, _ in GRID])
def test_gauss_limits_match_the_oracle(oracle, spec, scale, tame):
    gens = spec.split(",")
    dom = Interval(0.1 * scale, 5.0 * scale)
    system = GeneratorSystem([Generator.from_expression(g, dom) for g in gens])
    fused = cyclic_mapping(GeneralizedQuasiArithmeticMean(system))
    # shift-0 pins that rotation_base does not recognize: the generic orbit
    generic = MeanTypeMapping([PermutedMean(c, 0, len(gens)) for c in fused.components],
                              label=fused.label)
    assert rotation_base(generic.components) is None
    reference = oracle.Oracle(gens)
    for rng in seeded_rng(7).spawn(SAMPLES):
        pts = [float(v) for v in dom.sample(rng, len(gens))]
        try:
            limit, trace = gauss_iterate(fused, pts)
        except ConvergenceError as exc:
            assert not tame, (pts, exc)
            with pytest.raises(ConvergenceError) as again:
                gauss_iterate(generic, pts)
            assert again.value.trace == exc.trace
            continue
        assert gauss_iterate(generic, pts) == (limit, trace)
        why = (pts, trace.stop, trace.iterations_used)
        assert oracle.rel_err(limit, reference.qam(trace.last)) <= REL_TOL, why
        assert oracle.rel_err(limit, reference.qam(pts)) <= (REL_TOL if tame else oracle.REL_TOL), why


def test_a_chance_agreement_does_not_end_an_orbit(oracle):
    # the estimates of this x, x^2, x^3 orbit at steps 14 and 15 agree to
    # 1.6e-12 while both are 2.1e-9 off; the next differences are far
    # larger, so the orbit must go on until two agreements in a row
    gens = ["x", "x^2", "x^3"]
    dom = Interval(0.1, 5.0)
    system = GeneratorSystem([Generator.from_expression(g, dom) for g in gens])
    pts = [2.405321039653734, 4.847831927779884, 4.098023062987815]
    limit, trace = gauss_iterate(cyclic_mapping(GeneralizedQuasiArithmeticMean(system)),
                                 pts, 1e-9, 2000)
    assert trace.stop == "extrapolated" and trace.iterations_used > 15
    assert oracle.rel_err(limit, oracle.Oracle(gens).qam(pts)) <= REL_TOL
