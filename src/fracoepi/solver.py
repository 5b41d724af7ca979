"""Fractional Adams-Bashforth-Moulton PECE integration of Caputo systems.

Solves ``D^a x = f(t, x)`` (Caputo derivative, 0 < a <= 1) through the
equivalent Volterra form ``x(t) = x(0) + (1/Gamma(a)) * integral of
(t-s)^(a-1) f(s, x(s)) ds`` on a uniform grid: the predictor integrates the
kernel against piecewise-constant history (fractional forward rule), the
corrector against the piecewise-linear interpolant (product trapezoid), with
the classic predict-evaluate-correct-evaluate sweep per step.  For a = 1 the
weights degenerate to the classical rectangle/trapezoid Adams pair.

The memory term makes a single solve inherently sequential.  Its history sums
are split as in Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985): blocks of ``_LEAF`` nodes are summed directly, and once a block of
nodes is solved its whole contribution to the next block of equal length is
added with one real-FFT convolution per weight table.  While every block fits
one ``_FFT_CAP``-point transform (up to 8192 nodes) the memory term costs
O(n log^2 n) instead of O(n^2); a run of at most ``_LEAF`` nodes is the plain
direct sum.  A longer block of S nodes runs (S/4096)^2 chunk pairs, each of
which transforms its source chunk again (and its kernel too, unless the lag
equals the chunk length), so past 8192 nodes that part grows as n^2/4096.
On ``example1-global`` at order 0.95 and step 0.05 the split blocks took
0.005, 0.042 and 0.65 s of solves of 20k, 60k and 240k nodes that took
0.064, 0.213 and 1.35 s in all (each split block timed inside the solve;
the totals are the best of 30, 30 and 6 solves in a process that
alternates them with solves of another solver, on a shared 2-core Xeon
VM, Python 3.11, numpy 2.4).

Besides the trajectory's own state rows, a solve of N nodes and d components
holds the evaluated right-hand sides (d·(N + 1) doubles, 3(N + 1) for the
model) and two weight tables (2(N + 1)), plus transform buffers bounded by
``_FFT_CAP``; while the tables are built, five (N + 2)-arrays take their
place (three tables and the two powers they come from).  The leaf loop
adds no storage that grows with N.  The solve releases the history and the
tables before it fetches its time grid, and every live trajectory on one
grid (same step and node count) shares one read-only times array, so a run
holding many trajectories stores their times once.

What remains is Python work per node: two short dot products, two
evaluations of the vector field, the state updates and the divergence
check.  A leaf's RHS rows go to one leaf buffer, copied into the history
once the leaf is solved, so the buffer's view for every lag and the
``dot`` method of every lag's weight view are made once per solve;
``ndarray.dot`` reaches numpy's C product without the
``__array_function__`` dispatch that ``np.dot`` passes on every call
(numpy 2.4: 0.85 against 1.1 us a call).  Each dot writes its sums into
one preallocated row, read back through a memoryview, so no result array
is made.  The arithmetic around the dots (predictor, corrector,
divergence check) runs on Python floats, with the operations of the array
form in the same order, so every state is bit-identical and a step of a
few components avoids the ufunc overhead of small arrays.  It is written
out component by component in a leaf loop generated once per state
dimension and field text, as ``dataclasses`` writes ``__init__``, because
a list comprehension costs a function call; ``_field_code`` compiles it,
and a text's :func:`text_field` callable, from one source.  A leaf reads its
pending sums and times as lists once; the loop stores each corrected
component straight into ``states`` and each RHS component into the leaf
buffer, through flat float64 memoryviews of both made once per solve, so
no row is collected in a list or converted from one by numpy.

The loop steps every field in one form.  The model's field, made by
:func:`text_field`, carries its equations as source (``_text``, from
``model._FIELD_TEXT``) and the values of their ``_constants``: its
statements are written into both evaluations of a node, on the state's
floats.  Any other callable is the one statement that calls it, whatever
attributes it has.  Either way the loop reaches a field's callable only
through one adapter, which passes it a fresh array and checks the shape
of its value: a text field at node 0 and where its text divides by zero,
any other field at every evaluation.  A text of another size than the
initial state is rejected before the solve allocates anything, and node
0 is evaluated before the solve's arrays too.  A 60 000-node solve of the
model costs about 3.6 us per node (0.213 s), and 6.2 us (0.373 s) through
the adapter (best of 30 and 18 solves, measured as above).
"""

from __future__ import annotations

import functools
import math
import numbers
import reprlib
import sys
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DivergenceError",
    "FodeProblem",
    "SolverConfig",
    "Trajectory",
    "ValidationError",
    "abm_weights",
    "float_array",
    "shown",
    "solve_pece",
    "validate_finite",
    "validate_order",
    "validate_positive",
]

DIVERGENCE_LIMIT = 1e12  # component magnitude treated as blow-up
NODE_CAP = 2_000_000  # most nodes one solve may allocate
GRID_TOL = 1e-9  # relative distance of t_end/step from an integer
# smallest order whose first predictor weight h^order/order ~ 1/order, times a
# right-hand side of size DIVERGENCE_LIMIT, is finite
MIN_ORDER = DIVERGENCE_LIMIT / sys.float_info.max
BOOL_TYPES = (bool, np.bool_)  # no number: Python and numpy read True and False as 1 and 0

_LEAF = 128  # nodes summed directly; a power of two
_FFT_CAP = 1 << 13  # longest transform; longer blocks are split into chunk pairs

# read-only node times by (step type, step, node count), shared by every live
# trajectory on that grid; an entry goes with the last array or view holding it
_GRIDS = weakref.WeakValueDictionary()


class ValidationError(ValueError):
    """A rejected input: model parameters, states, configuration values,
    function arguments or a trajectory file."""


def shown(value, form=str) -> str:
    """``form(value)`` in a rejection message, except that an int past the float
    range is named: spelt out it could run to thousands of digits, and past
    4300 Python refuses to convert it to text at all."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "an integer beyond the float range"
    return form(value)


def validate_order(order: float) -> None:
    """Reject a fractional order outside (0, 1], below MIN_ORDER, or not a number."""
    _validate("order", order, lambda v: 0.0 < v <= 1.0, "lie in (0,1]")
    if order < MIN_ORDER:
        raise ValidationError(
            f"order {order} is too small: its reciprocal times the divergence"
            f" limit {DIVERGENCE_LIMIT:g} overflows;"
            f" the smallest order accepted is {MIN_ORDER!r}"
        )


def _validate(name: str, value: float, test, rule: str) -> None:
    try:
        if isinstance(value, BOOL_TYPES):
            raise TypeError
        passed = test(value)
    except TypeError:  # None, a string, a bool
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int past the float range
        passed = False
    if not passed:
        raise ValidationError(f"{name} must {rule}, got {shown(value)}")


def validate_finite(name: str, value: float) -> None:
    """Reject a value that is NaN, infinite, or not a number."""
    _validate(name, value, math.isfinite, "be finite")


def validate_positive(name: str, value: float) -> None:
    """Reject a value that is not finite and positive, or not a number."""
    _validate(name, value, lambda v: math.isfinite(v) and v > 0.0, "be finite and positive")


def float_array(name: str, value) -> np.ndarray:
    """``np.asarray(value, dtype=float)``; a value numpy cannot read so (text,
    lists of unequal lengths, Python complex numbers) is rejected, naming ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as error:  # overflow: an int past float range
        raise ValidationError(f"{name} must be real numbers in an array: {error}") from None


class DivergenceError(RuntimeError):
    """Raised when the computed solution blows up or turns non-finite."""

    def __init__(self, node: int, time: float, state: np.ndarray):
        self.node = node
        self.time = time
        self.state = state
        super().__init__(
            f"solution diverged at node {node} (t = {time:g}): state = {state}"
        )


@dataclass(frozen=True)
class FodeProblem:
    """Caputo initial value problem of commensurate order in (0, 1], started at t = 0."""

    order: float
    initial_state: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self):
        validate_order(self.order)
        if not callable(self.rhs):
            raise ValidationError(f"rhs must be callable, got {type(self.rhs).__name__}")
        # a read-only copy: a later write to the caller's array leaves the problem alone
        state = np.atleast_1d(float_array("initial_state", self.initial_state).copy())
        if state.ndim != 1 or state.size == 0:
            raise ValidationError("initial_state must be a non-empty vector")
        if not np.all(np.isfinite(state)):
            raise ValidationError(f"initial_state must be finite, got {state}")
        state.setflags(write=False)
        object.__setattr__(self, "initial_state", state)


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid settings for :func:`solve_pece`; ``t_end`` must lie on the grid."""

    step: float
    t_end: float

    def __post_init__(self):
        validate_positive("step", self.step)
        validate_finite("t_end", self.t_end)

    def node_count(self) -> int:
        """Number of steps from t = 0; rejects off-grid spans and spans beyond the node cap."""
        if self.t_end < 0.0:
            raise ValidationError(f"t_end = {self.t_end} lies before t = 0")
        ratio = self.t_end / self.step
        # checked before the int conversion, which an infinite ratio would
        # break; 7 digits tell a count just past the cap from the cap itself
        if ratio > NODE_CAP + 0.5:
            raise ValidationError(f"{ratio:.7g} nodes exceed the cap of {NODE_CAP}")
        steps = int(round(ratio))
        if abs(ratio - steps) > GRID_TOL * max(ratio, 1.0):
            raise ValidationError(
                f"t_end = {self.t_end} is not on the grid of step {self.step} "
                f"from t = 0: the span holds {ratio!r} steps"
            )
        return steps


@dataclass(frozen=True)
class Trajectory:
    """Grid solution: times (n+1,), states (n+1, dim), row 0 = initial state.

    Rejects, with a ValidationError, ``times`` that is not a 1-D ndarray,
    ``states`` that is not a 2-D ndarray of one row per time (at least one)
    and one column or more, and an order that is neither NaN (a trajectory
    read from CSV) nor valid.  The arrays are neither converted nor copied,
    only made read-only: integer times stay integers, and views stay views.
    """

    times: np.ndarray
    states: np.ndarray
    order: float

    def __post_init__(self):
        times, states = self.times, self.states
        if not (isinstance(times, np.ndarray) and isinstance(states, np.ndarray)):
            raise ValidationError(
                "trajectory times and states must be numpy arrays, got "
                f"{type(times).__name__} and {type(states).__name__}"
            )
        if times.ndim != 1 or len(times) == 0:
            raise ValidationError(
                f"trajectory times must be a non-empty vector, got shape {times.shape}"
            )
        if states.ndim != 2 or states.shape[0] != len(times) or states.shape[1] == 0:
            raise ValidationError(
                f"trajectory states must have one row per time ({len(times)}) and at"
                f" least one column, got shape {states.shape}"
            )
        # NaN, the one value unequal to itself: read from CSV, which omits the order
        if self.order == self.order:
            validate_order(self.order)
        times.setflags(write=False)
        states.setflags(write=False)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _lag_tables(order: float, step: float, size: int):
    """Weight tables for lags (and nodes) 0..size-1, shared by every step.

    ``w[m]`` multiplies f(t_{k-m}) in the predictor sum for node k,
    ``d[m]`` multiplies f(t_{k-m}) (1 <= m < k) in the corrector sum and
    ``c0[k]`` multiplies f(t_0) there; the corrector tables still lack the
    h^a/Gamma(a+2) scale.  Entries at index 0 are never used and are zero.
    """
    a = order
    grid = np.arange(size + 1, dtype=float)
    pow_a = grid**a
    pow_a1 = grid ** (a + 1.0)
    # built in place, in an order that frees each input once it is used, with
    # the operations of (step^a/a)*(pow_a[m] - pow_a[m-1]),
    # pow_a1[k-1] - (k-1 - a)*pow_a[k] and (pow_a1[m+1] + pow_a1[m-1]) -
    # 2*pow_a1[m]: the same bits as those expressions, without temporaries.
    # Written as those expressions, the temporaries raised perfbench's
    # peak_rss_mb from 40.30 to 41.05 MB on long-solve and from 46.05 to
    # 46.93 MB on reproduce-ex1 (one 5 s run each): keep the build in place
    w = np.zeros(size)
    np.subtract(pow_a[1:size], pow_a[: size - 1], out=w[1:])
    w[1:] *= step**a / a
    c0 = np.zeros(size)
    shifted = grid[: size - 1]
    shifted -= a
    shifted *= pow_a[1:size]
    np.subtract(pow_a1[: size - 1], shifted, out=c0[1:])
    del grid, pow_a, shifted
    d = np.zeros(size)
    np.add(pow_a1[2:], pow_a1[: size - 1], out=d[1:])
    pow_a1 *= 2.0
    d[1:] -= pow_a1[1:size]
    return w, d, c0


def abm_weights(order: float, n: int, step: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Corrector and predictor weights for the step onto node n+1.

    Returns ``(corrector, predictor)`` where ``predictor[j] =
    (h^a/a)*((n+1-j)^a - (n-j)^a)`` multiplies f(t_j) inside the 1/Gamma(a)
    predictor sum (j = 0..n), and ``corrector[j]`` (j = 0..n+1) is the
    product-trapezoid weight including its h^a/Gamma(a+2) normalization.
    Both quadratures integrate a constant exactly:
    sum(predictor) = h^a (n+1)^a / a and
    sum(corrector) = h^a (n+1)^a (a+1) / Gamma(a+2).
    These are the tables :func:`solve_pece` uses, read for one step.
    """
    validate_order(order)
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"node index n must be a non-negative integer, got {n!r}")
    if n >= NODE_CAP:  # checked before the tables of n + 2 entries are allocated
        raise ValidationError(f"the step onto node {n + 1} exceeds the cap of {NODE_CAP} nodes")
    validate_positive("step", step)
    w, d, c0 = _lag_tables(order, step, n + 2)
    predictor = w[n + 1 : 0 : -1].copy()
    corrector = np.empty(n + 2)
    corrector[0] = c0[n + 1]
    corrector[1 : n + 1] = d[n:0:-1]
    corrector[n + 1] = 1.0
    corrector *= step**order / math.gamma(order + 2)
    return corrector, predictor


def solve_pece(problem: FodeProblem, config: SolverConfig) -> Trajectory:
    """Integrate a Caputo problem on the uniform grid defined by config.

    Raises :class:`DivergenceError` as soon as a corrected state exceeds
    ``DIVERGENCE_LIMIT`` in magnitude or turns non-finite.  States are not
    clipped in any way; slightly negative population values near zero are
    reported as computed so that downstream checks can judge them.
    """
    a = problem.order
    h = config.step
    n_steps = config.node_count()

    y0 = problem.initial_state.tolist()
    shape = problem.initial_state.shape
    dim = len(y0)
    # a field text_field made runs its text's loop; one of another size allocates nothing
    text = getattr(problem.rhs, "_text", None)
    if text is None:
        leaf_loop, constants = _field_code(dim)[0], ()
    else:
        if len(text[0]) != dim:
            raise ValidationError(f"the field's states have {len(text[0])} components, got {dim}")
        leaf_loop, constants = _field_code(dim, text)[0], problem.rhs._constants
    rhs_fn = _list_field(problem.rhs, shape, h)
    f0 = rhs_fn(0.0, y0)
    # until node k is solved, states[k] and rhs_values[k] hold the pending
    # predictor and corrector history sums of the nodes before its block
    states = np.zeros((n_steps + 1, len(y0)))
    rhs_values = np.zeros((n_steps + 1, len(y0)))
    states[0] = y0

    w, d, c0 = _lag_tables(a, h, n_steps + 1)
    # buf holds the RHS rows of the current leaf (row i: node start + i) until
    # the leaf is solved and they go to rhs_values.  The in-block lag tables
    # are reversed so that the dot for lag m runs on contiguous rows:
    # leaf_w[-m:] against buf[:m].  Every view and bound dot is made once.
    buf = np.zeros((_LEAF, dim))
    views = [buf[:m] for m in range(_LEAF)]
    leaf_w = np.ascontiguousarray(w[1:_LEAF][::-1])
    leaf_d = np.ascontiguousarray(d[1:_LEAF][::-1])
    n_leaf = len(leaf_w)
    w_dots = [leaf_w[n_leaf - m :].dot for m in range(n_leaf + 1)]
    d_dots = [leaf_d[n_leaf - m :].dot for m in range(n_leaf + 1)]
    sums = np.zeros(dim)  # every leaf dot writes its sums here
    spectra: dict = {}  # kernel spectra of this solve, by block length

    inv_gamma_a = 1.0 / math.gamma(a)
    corr_scale = h**a / math.gamma(a + 2.0)

    buf[0] = rhs_values[0] = f0
    np.multiply(c0[1:, None], rhs_values[0], out=rhs_values[1:])  # node 0's corrector term
    del c0  # one table less held through the solve
    # the leaf loop reads the dot sums and stores solved states and RHS rows
    # through flat float views, released before the states go to a Trajectory
    with (
        memoryview(states.reshape(-1)) as states_flat,
        memoryview(buf.reshape(-1)) as buf_flat,
        memoryview(sums) as sums_flat,
    ):
        for start in range(0, n_steps + 1, _LEAF):
            stop = min(start + _LEAF, n_steps + 1)
            first_c = max(start, 1)  # node 0 enters the corrector through c0
            lo, hi = first_c - start, stop - start
            # the corrector sums rows first_c..k-1, which in the first leaf start at buf[1]
            d_views = views if lo == 0 else [buf[1 : m + 1] for m in range(hi - 1)]
            leaf_loop(
                rhs_fn, y0, range(first_c, stop), (h * np.arange(first_c, stop)).tolist(),
                states[first_c:stop].tolist(), rhs_values[first_c:stop].tolist(),
                w_dots[lo:hi], views[lo:hi], d_dots[: hi - lo], d_views,
                sums, sums_flat, states_flat, buf_flat, start,
                inv_gamma_a, corr_scale, DIVERGENCE_LIMIT, constants,
            )
            rhs_values[first_c:stop] = buf[lo:hi]
            if stop <= n_steps:
                # nodes [stop - size, stop) close a left half of length size
                _add_block_history(states, rhs_values, w, d, spectra, stop, stop & -stop)

    # the grid comes last, once the history and the tables are gone: a solve's
    # memory peaks here, as its state rows are only touched as it advances
    del rhs_values, w, d, spectra
    times = _grid(h, n_steps)
    return Trajectory(times=times, states=states, order=a)


def text_field(text, constants) -> Callable:
    """The vector field ``f(t, y)`` that ``text`` writes, ``constants`` bound.

    ``text`` is a field as source, the package's own (``model._FIELD_TEXT``):
    a tuple of its state names, a tuple of its constant names (``constants``
    holds their values), and statements that assign its components to
    ``f_0``, ``f_1``, ...  ``y`` is one state, a list or a 1-D array,
    evaluated on its Python floats (or complex numbers), or states stacked
    on axis 1, an array or nested lists, evaluated on arrays, with the same
    bits; one state that divides by zero is evaluated again as a (d, 1)
    array, which gives numpy's inf or NaN without its warnings.  The
    callable carries ``_text`` and ``_constants``, so :func:`solve_pece`
    steps the text inline and calls the field only at node 0 and where the
    text divides by zero.  A text is compiled once, with its step loop (see
    ``_field_code``), and the constants are bound per field.
    """
    field = _field_code(len(text[0]), text)[1](*constants)
    field._text, field._constants = text, constants
    return field


# the steps of one leaf, written out per component: each field below is a
# list with one item per component, or a block of statements (see _field_code)
_LEAF_LOOP = """\
def _leaf_loop(_rhs_fn, _y0, _nodes, _times, _pending, _pending_c, _w_dots, _w_views, _d_dots,
               _d_views, _sums, _sums_flat, _states_flat, _buf_flat, _start, _inv_gamma_a,
               _corr_scale, _limit, _constants):
    {y0}, = _y0
    {bind}
    for _node, _t, ({p},), ({c},), _w_dot, _w_view, _d_dot, _d_view in _zip(
        _nodes, _times, _pending, _pending_c, _w_dots, _w_views, _d_dots, _d_views
    ):
        # predictor: fractional rectangle rule over the whole history
        _w_dot(_w_view, _sums)
        {q}, = _sums_flat
        {x}, = {predicted},
        {field}
        # corrector history: hat-function weights
        _d_dot(_d_view, _sums)
        {q}, = _sums_flat
        {x}, = {corrected},
        {field}
        if not ({bounded}):  # NaN fails too
            raise _DivergenceError(_node, _t, _array([{x}]))
        _at = {dim} * _node
        {store_x}
        _at = {dim} * (_node - _start)
        {store_f}
"""

# a field's text as the callable text_field returns, with its constants bound
_TEXT_FIELD = """\
def _bind({constants}):
    def _field(_t, _y):
        if _type(_y) is not _ndarray:  # one state as given, nested lists as an array
            _y = _states(_y)
        elif _y.ndim == 1:
            _y = _y.tolist()  # one state: its Python floats
        try:
            {state}, = _y
        except (TypeError, ValueError):  # a 0-d input, or a state of another size
            raise _ValidationError(f"the field's states have {dim} components,"
                                   f" got {{_len(_y) if _ndim(_y) else 'a 0-d input'}}") from None
        try:
{statements}
        except _ZeroDivisionError:  # one state of Python numbers
            with _errstate(divide="ignore", invalid="ignore"):
                return _field(_t, _array(_y)[:, None])[:, 0]
        return _array([{f}])
    return _field
"""


@functools.lru_cache(maxsize=16)
def _field_code(dim: int, text=None):
    """``(leaf_loop, bind)`` for states of ``dim`` components, compiled
    from one source built from ``dim`` and ``text`` alone (every value comes
    in as an argument); the cache keeps the 16 most recently used.

    ``leaf_loop`` solves the nodes of a leaf in order.  Each dot writes its
    sums into ``sums``, read through the memoryview ``sums_flat``.
    Component i of the corrected state of a node goes to
    ``states_flat[dim * node + i]`` and of its RHS to
    ``buf_flat[dim * (node - start) + i]``, where the dots of the next nodes
    read it: flat float64 memoryviews of ``states`` and of the leaf buffer.
    Its arithmetic runs on Python floats, written out component by
    component in the operation order of the array form: a list
    comprehension is a function call of its own (0.64 us against 0.13 us
    written out for the three-component predictor, Python 3.11, best of
    5 x 500 000).  With a field's ``text`` (see :func:`text_field`) both
    evaluations of a node bind its state names, to the predicted and to the
    corrected state, and run its statements inline, inside a ``try`` whose
    ``ZeroDivisionError`` handler calls ``rhs_fn`` on the state instead;
    the constants come in as the tuple ``constants``, unpacked once per
    leaf.  Without a text the field is the one statement
    ``f_0, ..., = _rhs_fn(_t, [_x_0, ...])``, with no handler, so a
    ``ZeroDivisionError`` the call raises propagates, and ``bind`` is None.

    ``bind(*constants)`` is the callable :func:`text_field` returns.  A
    text is the package's own, written in unchecked: every name of the
    generated code's own starts with ``_``, and none of the text's does.
    """

    def each(template, sep=", "):
        return sep.join(template.format(i=i) for i in range(dim))

    body = "\n" + " " * 8  # a new line in the loop body
    state, constants, statements = text or ((), (), "")
    x = state or [f"_x_{i}" for i in range(dim)]
    f = each("f_{i}")
    call = f"{f}, = _rhs_fn(_t, [{', '.join(x)}])"
    if text is None:
        field = call
    else:
        field = (
            "try:\n" + "".join(f"    {line}\n" for line in statements.splitlines())
            + f"except _ZeroDivisionError:\n    {call}"
        )
    source = _LEAF_LOOP.format(
        **{name: each(f"_{name}_{{i}}") for name in ("y0", "p", "c", "q")},
        bind=f"{', '.join(constants)}, = _constants" if constants else "",
        x=", ".join(x),
        predicted=each("_y0_{i} + _inv_gamma_a * (_p_{i} + _q_{i})"),
        corrected=each("_y0_{i} + _corr_scale * ((_c_{i} + _q_{i}) + f_{i})"),
        field=field.replace("\n", body),
        bounded=" and ".join(f"-_limit <= {v} <= _limit" for v in x),
        dim=dim,
        store_x=body.join(f"_states_flat[_at + {i}] = {v}" for i, v in enumerate(x)),
        store_f=each("_buf_flat[_at + {i}] = f_{i}", body),
    )
    if text is not None:
        source += _TEXT_FIELD.format(
            constants=", ".join(constants), state=", ".join(state), dim=dim, f=f,
            statements="".join(f"            {line}\n" for line in statements.splitlines()),
        )
    namespace = {"_zip": zip, "_ZeroDivisionError": ZeroDivisionError,
                 "_DivergenceError": DivergenceError, "_ValidationError": ValidationError,
                 "_array": np.array, "_ndarray": np.ndarray, "_errstate": np.errstate,
                 "_type": type, "_len": len, "_ndim": np.ndim, "_states": _states}
    exec(compile(source, f"<field code, {dim} components>", "exec"), namespace)
    return namespace["_leaf_loop"], namespace.get("_bind")


def _states(y):
    """A text field's ``y`` that is no ndarray: one state as it is, on its
    Python numbers, and anything else as an array, so nested lists stack states."""
    try:
        array = np.array(y)
    except ValueError:  # lists of unequal lengths
        raise ValidationError(f"a field's stacked states must have one length,"
                              f" got {reprlib.repr(y)}") from None
    return y if array.ndim == 1 else array


def _grid(step, n_steps: int) -> np.ndarray:
    """The read-only ``step * np.arange(n_steps + 1)``, one array per live grid."""
    key = (type(step), step, n_steps)  # an int step gives integer times
    times = _GRIDS.get(key)  # None until built, and again once no array holds it
    if times is None:
        times = step * np.arange(n_steps + 1)
        times.setflags(write=False)
        _GRIDS[key] = times
    return times


def _add_block_history(states, rhs_values, w, d, spectra, end, size):
    """Add the memory of nodes [end - size, end) to the pending sums of [end, end + size).

    Rows before ``end`` are solved; from ``end`` on, ``states`` holds the
    pending predictor sums and ``rhs_values`` the pending corrector sums.

    Source chunk [j0, j0 + chunk) reaches target chunk [k0, k0 + chunk)
    through the lags k0 - j0 - chunk + 1 .. k0 - j0 + chunk - 1, so one
    circular convolution of length 2*chunk gives the target sums in its
    rows chunk-1 .. 2*chunk-2 without wrap-around.  Blocks longer than half
    of ``_FFT_CAP`` are split into chunk pairs, so no transform is longer.
    """
    from numpy.fft import irfft, rfft

    chunk = min(size, _FFT_CAP // 2)
    length = 2 * chunk
    top = min(end + size, len(rhs_values))
    for k0 in range(end, top, chunk):
        k1 = min(k0 + chunk, top)
        acc_w = acc_d = None
        for j0 in range(end - size, end, chunk):
            lag = k0 - j0
            kernels = spectra.get(lag)
            if kernels is None:
                lags = slice(lag - chunk + 1, lag + chunk)
                kernels = rfft(w[lags], length)[:, None], rfft(d[lags], length)[:, None]
                if lag == chunk:  # cache only unsplit blocks: at most ~_FFT_CAP values
                    spectra[lag] = kernels
            source = rhs_values[j0 : j0 + chunk]
            spec_w = rfft(source, length, axis=0)
            if j0 == 0:
                source = source.copy()
                source[0] = 0.0  # node 0 enters the corrector through c0
                spec_d = rfft(source, length, axis=0)
            else:
                spec_d = spec_w
            # kernel x spectrum in that operand order: the swapped product
            # differs in the last bits; spec_w is read before spec_d may reuse it
            prod_w = kernels[0] * spec_w
            prod_d = np.multiply(kernels[1], spec_d, out=spec_d)
            if acc_w is None:
                acc_w, acc_d = prod_w, prod_d
            else:
                acc_w += prod_w
                acc_d += prod_d
        rows = slice(chunk - 1, chunk - 1 + k1 - k0)
        states[k0:k1] += irfft(acc_w, length, axis=0)[rows]
        rhs_values[k0:k1] += irfft(acc_d, length, axis=0)[rows]


def _list_field(rhs, shape, step):
    """``rhs`` on the step loop's lists: list of floats in, list of floats out.

    The field's state is passed as a fresh array and its value checked for
    ``shape`` at every evaluation.  A value of another shape raises a
    ValidationError that names the node: the step loop calls the field at
    t = step * k for node k (node 0 at 0.0), so t / step rounds to k (it is
    within 1e-9 of k up to ``NODE_CAP`` nodes).  Every field goes through
    this adapter; a text field (see :func:`text_field`) only at node 0 and
    where its text divides by zero.
    """
    array, asarray = np.array, np.asarray

    def adapter(t, y):
        value = asarray(rhs(t, array(y)), dtype=float)
        if value.shape != shape:
            raise ValidationError(
                f"rhs returned shape {value.shape}, expected {shape} "
                f"at node {int(round(t / step))}"
            )
        return value.tolist()

    return adapter
