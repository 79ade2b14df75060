"""CLI argv fuzz: every numeric option of every subcommand takes a value drawn
from zero, negative, NaN, infinite, huge and valid.  Each run ends in exit 0,
1 or 2 with at most one stderr line and no traceback, and a run in which some
value lies outside its option's domain exits 1.

Runs stay bounded: --n <= 8, --max-iter <= 50 and --random-states <= 5.
--steps is at most 50 or huge, and horizon / h_lo is at most 1e3 or so large
that its step count is: a trajectory of more than DENSE_LIMIT_BYTES is
refused before the first step, so such a run lies outside the domain.  The
finite ratios between 1e3 and that bound are not drawn, since they run long.
"""

import contextlib
import io
import math

from hypothesis import assume, given, settings, strategies as st

from polyjac.cli import main
from polyjac.system import DENSE_LIMIT_BYTES

KINDS = ("zero", "negative", "nan", "inf", "huge", "valid")
BOUNDED = ("zero", "negative", "nan", "inf", "valid")  # an integer option that sets the run's length


@st.composite
def values(draw, valid, huge="1e300", kinds=KINDS):
    """The text of one option value: valid three times in four, else of a drawn kind."""
    kind = draw(st.sampled_from(kinds)) if draw(st.integers(0, 3)) == 0 else "valid"
    return {"zero": "0", "negative": "-1", "nan": "nan", "inf": "inf", "huge": huge, "valid": valid}[kind]


def too_long(steps, n):
    """Whether a trajectory of steps + 1 states of n floats exceeds DENSE_LIMIT_BYTES."""
    return 8 * (steps + 1) * n > DENSE_LIMIT_BYTES


def as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


@st.composite
def states(draw, n):
    """A state text of n entries (now and then n + 1) and whether it lies outside the domain."""
    size = n + draw(st.sampled_from((0, 0, 0, 1)))
    entries = [draw(values("0.5")) for _ in range(size)]
    return ",".join(entries), size != n or not all(map(math.isfinite, map(float, entries)))


@st.composite
def inputs(draw):
    """The input argv, its dimension and whether a preset argument lies outside the domain."""
    if draw(st.booleans()):
        return ["circle-cubic"], 2, False
    n = draw(values(str(draw(st.integers(4, 8))), kinds=BOUNDED))
    re = draw(values("100"))
    bad = as_int(n) is None or as_int(n) < 4 or not float(re) > 0
    return ["burgers", f"--n={n}", f"--re={re}"], as_int(n) or 2, bad


@st.composite
def argvs(draw):
    """A full argv and whether some value in it lies outside its option's domain."""
    seed = draw(values("3", huge="1" + "0" * 30))
    source, n, bad = draw(inputs())
    bad = bad or as_int(seed) is None or as_int(seed) < 0
    command = draw(st.sampled_from(("solve", "check-jacobian", "stability", "integrate")))
    argv = [f"--seed={seed}", command, *source]
    if command != "integrate" and draw(st.booleans()):
        state, bad_state = draw(states(n))
        argv.append(f"--{'x0' if command == 'solve' else 'state'}={state}")
        bad = bad or bad_state
    if command == "solve":
        method = draw(st.sampled_from(("newton", "classic-rank1", "modified-rank1", "jacobi", "gauss-seidel", "sor")))
        omega, tol = draw(values("1.5")), draw(values("1e-8"))
        max_iter = draw(values("20", kinds=BOUNDED))
        argv += [f"--method={method}", f"--omega={omega}", f"--tol={tol}", f"--max-iter={max_iter}"]
        relaxation = method in ("jacobi", "gauss-seidel", "sor")
        bad = (bad or (relaxation and not 0 < float(omega) <= 2) or not float(tol) > 0
               or as_int(max_iter) is None or as_int(max_iter) < 0)
    elif command == "check-jacobian":
        fd_step, random_states = draw(values("1e-6")), draw(values("2", kinds=BOUNDED))
        argv += [f"--fd-step={fd_step}", f"--random-states={random_states}"]
        random_states_used = not any(a.startswith("--state=") for a in argv)
        bad = (bad or not 0 < float(fd_step) < math.inf or as_int(random_states) is None
               or (random_states_used and as_int(random_states) < 1))
    elif command == "integrate":
        method = draw(st.sampled_from(("explicit-euler", "rk4", "implicit-euler", "semi-implicit-euler")))
        argv.append(f"--method={method}")
        if draw(st.booleans()):
            state, bad_state = draw(states(n))
            argv.append(f"--x0={state}")
            bad = bad or bad_state
        if draw(st.booleans()):
            h_lo, h_hi, horizon = draw(values("0.01")), draw(values("0.5")), draw(values("1"))
            lo, hi, t = float(h_lo), float(h_hi), float(horizon)
            ratio = t / lo if math.isfinite(lo) and math.isfinite(t) and lo != 0 else 0.0
            too_many = math.isfinite(ratio) and too_long(math.ceil(ratio), n)
            assume(not (1e3 < ratio < math.inf and not too_many))
            argv += ["--scan", f"--h-lo={h_lo}", f"--h-hi={h_hi}", f"--horizon={horizon}"]
            bad = bad or too_many or not (0 < t < math.inf and 0 < lo < hi < math.inf and math.isfinite(t / lo))
        else:
            h, steps = draw(values("0.01")), draw(values("10", huge="1000000000000"))
            argv += [f"--h={h}", f"--steps={steps}"] + (["--report"] if draw(st.booleans()) else [])
            bad = (bad or not 0 < float(h) < math.inf or as_int(steps) is None or as_int(steps) < 0
                   or too_long(as_int(steps), n))
    return argv, bad


@settings(max_examples=400)
@given(argvs())
def test_every_argv_ends_in_an_exit_code(case):
    argv, bad = case
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((1,) if bad else (0, 1, 2)), (argv, code, err.getvalue())
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), (argv, err.getvalue())
