"""Numeric kernels: plain Python on floats and lists.

The hot loops of this package are scalar: evaluation of a generator
inside bracketed root-finding inside Gauss iteration.  No kernel
imports numpy: ``eval_grid`` returns a list of floats, and an orbit
returns the rows and gaps it collects as lists.  A generator runs
as a body, a Python function of a float that returns a float, NaN where
the generator is not finite: its expression tree lowered once by
``dsl.compiler.compile_expr`` to straight-line Python.  A user callable
is wrapped once by ``guard`` and is a leaf of that tree, called by the
lowered code; a tree of that one leaf is its own body.  Bodies are
guarded when they are made, not per call.  This module only runs them.

The bracketed solve is stated once, as the statements ``dsl.compiler``
emits for a list of targets on one bracket whose endpoint values its
callers give, with the tree of the function it inverts inlined at each
trial point.  ``compile_solve`` lowers it alone, as the ``solve`` that
``invert`` runs; a system's Gauss step, lowered once by
``compile_step``, ends in the same statements with the sum F =
f1+...+fn inlined.  This module lowers nothing and imports nothing of
the compiler.  Every solve stops on ``INVERT_TOL``
within ``INVERT_BUDGET`` steps, two constants of this module that the
emitted code reads at each call and that are set nowhere else.  Its
secant steps weigh the endpoint that two steps in a row leave in place
by the Anderson-Bjorck rule, which takes fewer evaluations per solve
than Illinois halving, and it keeps each endpoint's true residual
beside the weighted one: the acceptance at adjacent floats reads the
true residual, since a weighted value can be far below it.
Every program and kernel returns its result first and its status
second.  A system's generalized quasi-arithmetic means are computed in
one place, its step ``step(x, lo, hi, count=n) -> (out, status)``: it
evaluates every member at every coordinate, each member's tree inlined,
folds the targets of the rotated means of the cyclic mapping and F(min
x), F(max x), and solves the first ``count`` targets.  ``gqam``, one
mean, is its first rotation, and solves for that target alone.  Gauss
iteration, with its stopping rules (a closed gap, a stalled gap, or a
Shanks estimate of the limit), is written once in ``orbit``, which
names the rule that ended it.  ``cyclic_gauss`` runs it over the step
of all n rotations, so a Gauss step is one call of generated code.
``gauss`` runs ``orbit`` over the components of any other mean-type
mapping.  The Shanks
estimate removes the ``SHANKS_MODES`` = 3 leading geometric modes of
the iterates' mean for every n, and at n = 2 it also tests e_1 off the
same table.  At n = 2 three modes end a slowly contracting orbit in
fewer Gauss steps than one; at n = 3 they are all the leading modes;
from n = 4 on the cap keeps the table's window at 7 means.

The code that runs per step of ``orbit`` and per solve of ``invert``
compares floats where a builtin ``min``, ``max``, ``abs`` or
``math.isnan`` call would give the same float: on CPython 3.11 such a
call costs more than the arithmetic it serves.
``orbit`` computes the Shanks rate rho only once an estimate passes the
rate-free bound: rho >= 0, so the bound (1 - rho) * bound it then tests
is never larger, and the verdict is the same.  Tests hold each rewritten
expression to the builtin formula it replaced and pin fixed orbits bit
for bit.

``ACTIVE`` holds the kernels, a ``KernelSet`` of ``eval_one``,
``eval_grid``, ``invert``, ``gqam`` and ``cyclic_gauss``.  The package's
callers outside this module read it at each call, so a wrapper installed
there (the benchmark's tracer) sees each of their calls.  Calls inside
the kernels do not go through ``ACTIVE``: ``cyclic_gauss`` hands the
step to ``orbit`` directly, and a step solves inline, so a wrapper on
``ACTIVE.invert`` counts only the solves of ``Generator.invert_on``.
``Generator.body``, ``Generator.invert_on`` and
``GeneratorSystem.program`` hand the kernels their programs: a
generator's body and solve, and a system's Gauss step.

Kernels never raise, save for a ``TypeError`` from calling a body of
the wrong arity.  Scalar evaluation signals trouble with NaN and the
solvers return status codes.  The callers turn those into package
exceptions, through ``Generator._invert_error``: ``Generator.invert_on``
for one solve and ``GeneralizedQuasiArithmeticMean._evaluate`` for one
mean.  ``gauss.gauss_iterate`` adds only the Gauss budget: a fused orbit
whose step failed replays that step through the mapping's components,
so it raises what the generalized mean raises.

Status codes shared by the solvers:

    0  success
    1  target not bracketed by the endpoint values
    2  iteration budget exhausted
    3  non-finite evaluation
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# numba is not a backend: the kernels are plain Python.  The name stays
# because the benchmark harness reads it on every run.
HAS_NUMBA = False

STATUS_OK = 0
STATUS_RANGE = 1
STATUS_BUDGET = 2
STATUS_NONFINITE = 3

# the bracketed solve's residual tolerance, relative to the values, and
# its step budget
INVERT_TOL = 1e-12
INVERT_BUDGET = 200

# relative gap at which a Gauss orbit has closed as far as float64 allows
GAP_FLOOR = 4.0 * sys.float_info.epsilon
# an orbit whose gap stops shrinking within this multiple of the floor
# has converged: rounding, not the mapping, sets the gap there
STALL_FLOOR = 2.0
# successive Shanks estimates of an orbit's limit must agree to this
# fraction of the orbit's gap tolerance (or to its floor) to end it
SHANKS_AGREE = 0.01
# the geometric modes of an orbit's mean that its Shanks estimate removes:
# Wynn's table is 2 * SHANKS_MODES columns deep for every n
SHANKS_MODES = 3


class KernelSet(NamedTuple):
    eval_one: callable
    eval_grid: callable
    invert: callable
    gqam: callable
    cyclic_gauss: callable


def invert(solve, ys, lo, hi, glo, ghi):
    """The bracketed solve for g(x) = y, for each target y of the list
    ys, on [lo, hi], g increasing there, given the endpoint values
    glo = g(lo) and ghi = g(hi) (NaN where g is not finite): a run of
    ``solve``, the lowering of g's tree by ``dsl.compiler.compile_solve``.
    The targets share the bracket and its values, so the rotated means
    of a Gauss step are one solve.

    Secant steps on the bracket with bisection as the fallback, within
    INVERT_BUDGET steps per target.  The first step is plain regula
    falsi.  When a step lands on the same side as the step before it,
    the value of the endpoint kept on the other side is multiplied by
    the Anderson-Bjorck weight m = 1 - f(new)/f(previous), or by 0.5
    where m <= 0 (Anderson & Bjorck, BIT 13, 1973; it replaced Illinois
    halving, Dowell & Jarratt, BIT 11, 1971, and takes about a quarter
    fewer steps).  Stops on the residual test
    |g(x)-y| <= INVERT_TOL*max(|y|, min(1, max(|g(lo)|, |g(hi)|))),
    relative to g's values on the bracket even below 1.  At an endpoint,
    or between adjacent floats, |g(x)-y| <= INVERT_TOL*max(1,|y|)
    suffices: cancellation in g near a zero crossing can leave no x that
    passes the relative test, and that tolerance is computed only there.
    Between adjacent floats it reads the endpoints' true residuals, kept
    beside their weighted values: the weights shrink a value far below
    its residual, and a target inside a jump of g would pass on them.
    A target on or past either end value, NaN or infinite, has that one
    test: it takes the nearer end, or fails with ``STATUS_RANGE``
    (always for a NaN or an infinite target, whose residual is never
    within a tolerance).  A NaN from g inside the bracket ends the solve
    (``STATUS_NONFINITE``), as does a NaN glo or ghi.  Midpoints are
    0.5*a + 0.5*b, which does not overflow near the largest float.
    Returns (xs, status): on success the solutions in the order of ys;
    on a failure xs ends at the first target that failed, with NaN, or
    with the midpoint of its last bracket where the budget ran out, and
    the targets after it are not solved.  The callers evaluate the
    endpoints: ``Generator.invert_on`` on g itself, for one target; a
    system's step, which runs the same statements with its sum inlined,
    off its member values.
    """
    return solve(ys, lo, hi, glo, ghi)


def scaled_stop(gap_tol, mn, mx):
    """The orbit's gap tolerance for a start vector of span [mn, mx]:
    gap_tol * min(1, max|x0|), relative below 1."""
    return gap_tol * min(1.0, max(abs(mn), abs(mx)))


def orbit(step, x0, gap_tol, max_iter):
    """Gauss iteration from the list of floats x0 of a mapping whose
    ``step(x, mn, mx) -> (out, status)`` gives the image ``out`` of the
    list x, of span [mn, mx], as a list of floats.  The orbit stops,
    converged, on the first of three tests, checked in this order at
    each iterate, and names it:

    "gap"           the gap mx - mn is at most max(tol, floor), with
                    tol = ``scaled_stop`` of x0, computed once (by the
                    current iterate, an orbit whose limit is 0 would
                    never stop), and floor = GAP_FLOOR * max(|mn|, |mx|);
    "stall"         a step left the gap no smaller while it is within
                    STALL_FLOOR * floor;
    "extrapolated"  the orbit's limit is extrapolated from the
                    arithmetic means m_k = fsum(x_k)/n of its iterates
                    (the fsum of x_k/n where fsum(x_k) overflows).

    The mapping preserves the arithmetic mean to first order (its
    Jacobian at the limit is a circulant whose rows and columns sum to
    1), so m_k - L is led by geometric modes of second and higher order:
    the K = n(n-1)/2 products of pairs of the Jacobian's n - 1 non-unit
    eigenvalues, then longer products.  Shanks' transform e_j (Shanks,
    J. Math. Phys. 34, 1955) of the last 2j+1 means, column 2j of Wynn's
    epsilon table (Wynn, MTAC 10, 1956), annihilates j modes.  The table
    is 2 * SHANKS_MODES columns deep for every n, and its estimate
    e_SHANKS_MODES, e_3, removes the three modes that lead:

    - at n = 2 the one non-unit eigenvalue lambda gives the modes
      lambda^(pk) for p >= 2, so e_3 removes lambda^2, lambda^3 and
      lambda^4, where e_1 would leave lambda^3 in place;
    - at n = 3 the K = 3 products are all of them;
    - from n = 4 on, the eigenvalues come in conjugate pairs lambda_k,
      lambda_{n-k}, so lambda_1^2, lambda_1 lambda_{n-1} and
      lambda_{n-1}^2 share the largest modulus; the cap keeps the
      table's window at 7 means instead of n(n-1) + 1 (on choosing the
      column for a sum of exponentials see Brezinski & Redivo-Zaglia,
      Extrapolation Methods, 1991).

    Where K is below SHANKS_MODES, at n = 2 alone, e_K is tested too,
    read off the same ascending diagonal at entry 2K: affine-related
    members (x^3, 2*x^3) leave only the even powers of lambda, which
    fall so fast that e_3's table is near singular, while e_1 ends such
    an orbit as early as it did alone.  Each tested column keeps its own last estimate, and the
    orbit stops on a column's estimate once all three hold (the deeper
    column is tested first):

    - it lies in [mn, mx];
    - it and the column's previous estimate each differ from the
      estimate before them by at most (1 - rho) * max(SHANKS_AGREE * tol,
      floor), where rho = (gap_k / gap_{k-2j})^(1/2j) is the gap's
      contraction rate over the column's window of 2j steps: estimates
      that still move by d a step at rate rho are about d / (1 - rho)
      from their limit, so a slowly contracting orbit must agree the
      more closely; and the estimates' error can change sign from step
      to step, so one small difference may be a coincidence, two in a
      row rarely;
    - every step over the estimate's window moved the mean by more than
      floor: a step that does not starts the table again, so a mean
      sequence with no geometric tail, such as that of a linear
      mapping, never extrapolates, however many modes it has.

    The orbit is never restarted from an estimate: the mapping fixes the
    whole diagonal, and the limit depends on the start.

    Returns (iterations_used, status, rows, gaps, estimate, stop): the
    iterates from x0 on and their gaps, two lists of iterations_used + 1
    entries, the Shanks estimate on that stop (None on the others), and
    the name of the test that ended a converged orbit, None when the
    Gauss budget ran out or a failed step ended the orbit with its status.
    """
    x = x0
    n = len(x0)
    fsum = math.fsum
    nan = math.nan
    # the tested columns of Wynn's table: column 2j holds Shanks' e_j, so
    # the deep column is e_SHANKS_MODES and the low one e_K, tested only
    # where K = n(n-1)/2 is the smaller (n = 2; n = 1 stops on its zero gap)
    depth = 2 * SHANKS_MODES
    root = 1.0 / depth
    low = n * (n - 1)
    if low >= depth:
        low = 0
    low_root = 1.0 / low if low else 1.0
    tol = scaled_stop(gap_tol, min(x), max(x))
    agree = SHANKS_AGREE * tol
    rows = []
    gaps = []
    last = math.inf
    mean = nan
    # each column's last estimate, and whether it agreed with the one
    # before it
    estimate = low_estimate = nan
    agreed = low_agreed = False
    # the last ascending diagonal of Wynn's epsilon table up to column
    # depth - 1: entry k is epsilon_k of the means from the (k+1)-th last on
    diagonal = []
    used = 0
    while True:
        rows.append(x)
        mn = min(x)
        mx = max(x)
        gap = mx - mn
        gaps.append(gap)
        # GAP_FLOOR * max(|mn|, |mx|), mn <= mx, by comparison
        floor = GAP_FLOOR * (mx if mx >= -mn else -mn)
        if not (gap > tol and gap > floor):
            return used, STATUS_OK, rows, gaps, None, "gap"
        if gap >= last and gap <= STALL_FLOOR * floor:
            return used, STATUS_OK, rows, gaps, None, "stall"
        try:
            m = fsum(x) / n
        except OverflowError:  # the sum passes the largest float, the mean does not
            m = fsum([v / n for v in x])
        # |m - mean| > floor, and False on the first, NaN, mean
        if m - mean > floor or mean - m > floor:
            # the next diagonal, written over the last one in place:
            # epsilon_{k+1} = epsilon_{k-1} of the older diagonal
            # + 1/(epsilon_k - epsilon_k of the older diagonal)
            e = m
            below = 0.0  # epsilon_{-1} = 0
            for k, older in enumerate(diagonal):
                diagonal[k] = e
                d = e - older
                e = below + 1.0 / d if d != 0.0 else nan
                below = older
            bound = floor if floor > agree else agree
            # each column's test: rho >= 0, so (1 - rho) * bound <= bound,
            # and the rate over the column's window is needed only where d
            # passes the bound alone; NaN d fails
            if len(diagonal) < depth:
                diagonal.append(e)
            else:
                d = e - estimate
                if d < 0.0:
                    d = -d
                close = d <= bound and d <= (
                    1.0 - (gap / gaps[-1 - depth]) ** root) * bound
                if close and agreed and mn <= e <= mx:
                    return used, STATUS_OK, rows, gaps, e, "extrapolated"
                agreed = close
                estimate = e
            if low and len(diagonal) > low:
                e = diagonal[low]
                d = e - low_estimate
                if d < 0.0:
                    d = -d
                close = d <= bound and d <= (
                    1.0 - (gap / gaps[-1 - low]) ** low_root) * bound
                if close and low_agreed and mn <= e <= mx:
                    return used, STATUS_OK, rows, gaps, e, "extrapolated"
                low_agreed = close
                low_estimate = e
        else:
            # a mean that does not move has no geometric tail: start
            # the table again from it
            diagonal.clear()
            diagonal.append(m)
            estimate = low_estimate = nan
            agreed = low_agreed = False
        mean = m
        if used >= max_iter:
            return used, STATUS_BUDGET, rows, gaps, None, None
        out, status = step(x, mn, mx)
        if status != STATUS_OK:
            return used, status, rows, gaps, None, None
        x = out
        last = gap
        used += 1


def guard(fn):
    """A Python callable as a body: fn(x) as a float, NaN where fn
    raises ``ValueError``, ``OverflowError`` or ``ZeroDivisionError`` or
    returns a value that is not a finite real number; a ``TypeError``
    from the call itself, such as a callable of the wrong arity,
    propagates.  The body carries ``guarded = True``, the mark by which
    ``Generator`` tells it from a raw callable."""

    def body(x):
        try:
            v = fn(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            return math.nan
        try:
            v = float(v)
        except (TypeError, ValueError, OverflowError):
            return math.nan
        return v if math.isfinite(v) else math.nan

    body.guarded = True
    return body


def eval_one(body, x):
    """The body at x, NaN where it is not finite."""
    return body(float(x))


def eval_grid(body, xs):
    """The body at each point of a sequence of numbers, as a list of
    floats."""
    return [body(float(x)) for x in xs]


def gqam(step, xs):
    """(f1+...+fn)^{-1}(f1(x1)+...+fn(xn)) for a list of floats xs, given
    the system's Gauss step: its first rotated mean, as (value, status),
    which solves for its one target alone.  The step evaluates every
    member at every coordinate: n^2 member values for one mean, which
    needs only f_j(x_j) and F at min xs and max xs."""
    out, status = step(xs, min(xs), max(xs), 1)
    return (out[0], status) if status == STATUS_OK else (math.nan, status)


def cyclic_gauss(step, x0, gap_tol, max_iter):
    """Gauss iteration of the cyclic mapping of a system, given its Gauss
    step, from the list of floats x0: ``orbit`` over the step of all n
    rotated means, as (iterations_used, status, rows, gaps, estimate,
    stop)."""
    return orbit(step, x0, gap_tol, max_iter)


# The kernels.  Callers read ACTIVE at each call and never keep it: the
# benchmark's tracer installs timed wrappers through ``ACTIVE._replace``.
ACTIVE = KernelSet(eval_one, eval_grid, invert, gqam, cyclic_gauss)


def active_backend() -> str:
    """The kernels' name, "python".  It stays, and so does ``HAS_NUMBA``,
    because the benchmark harness records both on every run."""
    return "python"


def warm_up():
    """Run every kernel of ``ACTIVE`` once on the programs that
    ``Generator`` and ``GeneratorSystem`` make, so that
    a timed run starts with every module imported and every path taken."""
    from .dsl.ast import Binary, Constant, X
    from .generator import Generator, GeneratorSystem
    from .interval import Interval

    dom = Interval(0.5, 4.0)
    body = Generator(dom, expr=Binary("*", X, Constant(2.0)), validate=False).body()
    # x, x^3 contracts slowly enough that its orbit ends on a Shanks estimate
    cube = Binary("*", Binary("*", X, X), X)
    system = GeneratorSystem([Generator(dom, expr=X, validate=False),
                              Generator(dom, expr=cube, validate=False)])
    ACTIVE.eval_one(body, 1.0)
    ACTIVE.eval_grid(body, [1.0, 2.0])
    Generator(dom, expr=cube, validate=False).invert_on(2.0, 0.5, 4.0)
    ACTIVE.gqam(system.program(), [1.0, 2.0])
    ACTIVE.cyclic_gauss(system.program(), [1.0, 2.0], 1e-10, 100)
