"""Seeded op streams for the four benchmark workloads.

A workload is an endless stream of rounds.  Each round holds one op per
stratum (a command at a fixed size), in a seeded order, with seeded
parameters; the seed never changes the mix of sizes, so two seeds cost the
same to within parameter noise.  An op is one ``casowron`` command line plus
at most one input file, and carries its oracle: the expected values were
computed from closed forms or the benchmark's own Fraction arithmetic when
the op was generated, and ``check`` only compares the report against them.

No two ops of a stream are identical (same argv and same input bytes);
``OpStream`` redraws on a repeat.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles as O

#: Relative tolerance of a float kappa, W or C against its closed form.
#: Float64 delivers 1.5e-7 at the worst stratum kept (hyperbolic n = 4).
FLOAT_REL = 1e-6
#: Relative tolerance of a recovered solver profile against its generator.
PROFILE_REL = 1e-6
#: Placeholder in argv for the op's input file.
FILE = "{file}"

class Mismatch(Exception):
    """A report disagreed with the oracle; the message names the first key."""


@dataclass
class Op:
    """One CLI invocation with its input and its precomputed oracle."""

    stratum: str
    argv: tuple
    text: str | None
    checks: list = field(default_factory=list)  # (key, predicate, expected)
    extra: object = None  # callable(keys, rows) -> None, raising Mismatch
    members: tuple = ()
    expect_exit: int = 0
    #: Drawn from the region the seed's solver rejects (see README).
    known_rejected: bool = False

    def key(self) -> bytes:
        """Digest of argv and input bytes; equal ops have equal keys."""
        return hashlib.blake2b(repr((self.argv, self.text)).encode(), digest_size=16).digest()

    def argv_for(self, path: str | None) -> list:
        return [path if a == FILE else a for a in self.argv]

    def check(self, code: int, out: str) -> None:
        """Raise Mismatch naming the first key that disagrees."""
        if code != self.expect_exit:
            raise Mismatch(f"exit code {code}, expected {self.expect_exit}")
        try:
            keys, rows = O.parse_report(out)
        except ValueError as exc:
            raise Mismatch(f"report: {exc}") from None
        for key, pred, want in self.checks:
            if key not in keys:
                raise Mismatch(f"{key}: missing")
            try:
                ok = pred(keys[key], want)
            except (ValueError, ZeroDivisionError) as exc:
                raise Mismatch(f"{key}: unparseable {keys[key]!r} ({exc})") from None
            if not ok:
                raise Mismatch(f"{key}: got {keys[key]!r}, expected {want!r}")
        if self.extra is not None:
            self.extra(keys, rows)


def eq_text(got: str, want) -> bool:
    return got == str(want)


def eq_exact(got: str, want) -> bool:
    return Fraction(got) == want


def near(got: str, want) -> bool:
    return O.close(O.parse_number(got), want, FLOAT_REL)


def eq_poly(got: str, want) -> bool:
    return O.parse_poly(got) == O.poly_trim(want)


def poly_value(point):
    def pred(got: str, want) -> bool:
        return O.poly_eval(O.parse_poly(got), point) == want
    return pred


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 6) -> float:
    return round(rng.uniform(lo, hi), digits)


# ---------------------------------------------------------------------------
# kappa-float

def _blocks_manifest(blocks, grid=None) -> str:
    lines = []
    for mu, r in blocks:
        lines += [f"member exppoly k={k} m={mu!r}" for k in range(r)]
    if grid is not None:
        lines.append("grid {} {} {}".format(*grid))
    return "\n".join(lines) + "\n"


def _block_members(blocks) -> tuple:
    return tuple(f"exppoly {k} {mu!r}" for mu, r in blocks for k in range(r))


def _draw_blocks(rng: random.Random, total: int, max_blocks: int = 3,
                 spread: float = 1.2, gap: float = 0.4) -> list:
    nb = rng.randint(1, min(max_blocks, total))
    cuts = sorted(rng.sample(range(1, total), nb - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    mus: list = []
    while len(mus) < nb:
        mu = _draw(rng, -spread, spread, 3)
        if all(abs(mu - v) >= gap for v in mus):
            mus.append(mu)
    return list(zip(mus, sizes))


def _kappa_op(stratum: str, argv: list, kappa: complex, members: tuple) -> Op:
    return Op(stratum, tuple(argv), None,
              [("measured", near, kappa)], members=members)


def kappa_round(rng: random.Random) -> list:
    ops = []
    for n in range(1, 9):
        a = _draw(rng, 0.5, 3.0)
        ops.append(_kappa_op(
            f"prop-binom-exp-n{n}",
            ["proportionality", "--kind", "binom-exp", f"--n={n}", f"--a={a!r}"],
            a ** (-n * (n + 1) / 2),
            tuple(f"binomexp {k} {a!r}" for k in range(n + 1))))
    for n in range(0, 7):
        m, w = _draw(rng, -0.5, 0.5), _draw(rng, 0.4, 2.6)
        ops.append(_kappa_op(
            f"prop-exp-trig-n{n}",
            ["proportionality", "--kind", "exp-trig", f"--n={n}", f"--m={m!r}",
             f"--omega={w!r}"],
            O.kappa_blocks([(complex(m, w), n + 1), (complex(m, -w), n + 1)]),
            tuple(f"exptrig {k} {m!r} {w!r} {ph}" for k in range(n + 1)
                  for ph in ("cos", "sin"))))
    for n in range(0, 5):
        m = _draw(rng, 0.5, 1.5)
        ops.append(_kappa_op(
            f"prop-hyperbolic-n{n}",
            ["proportionality", "--kind", "hyperbolic", f"--n={n}", f"--m={m!r}"],
            O.kappa_blocks([(m, n + 1), (-m, n + 1)]),
            tuple(f"hyperbolic {k} {m!r} {ph}" for k in range(n + 1)
                  for ph in ("cosh", "sinh"))))
    for total in (4, 6, 8, 10):
        blocks = _draw_blocks(rng, total)
        terms = ",".join(f"{mu!r}:{r - 1}" for mu, r in blocks)
        ops.append(_kappa_op(
            f"prop-gen-exp-poly-{total}",
            ["proportionality", "--kind", "gen-exp-poly", f"--terms={terms}"],
            O.kappa_blocks(blocks), _block_members(blocks)))
    for total in (3, 4, 5):
        blocks = _draw_blocks(rng, total)
        start = _draw(rng, -1.0, 0.5, 3)
        count = rng.randint(5, 9)
        grid = (repr(start), repr(round(start + 1.0, 3)), count)
        kappa = O.kappa_blocks(blocks)
        ops.append(Op(
            f"ratio-{total}", ("ratio", FILE), _blocks_manifest(blocks, grid),
            [("points", eq_text, count), ("ratio-mean", near, kappa),
             ("constant", eq_text, "true"), ("excluded-points", eq_text, 0)],
            members=_block_members(blocks)))
    for total in (3, 4, 5):
        blocks = _draw_blocks(rng, total)
        start = _draw(rng, -1.0, 0.5, 3)
        grid = (repr(start), repr(round(start + 1.0, 3)), rng.randint(5, 9))
        ops.append(Op(
            f"invariance-{total}",
            ("invariance", FILE, f"--seed={rng.randrange(1 << 30)}"),
            _blocks_manifest(blocks, grid),
            [("derivative-invariant", eq_text, "true"),
             ("shift-invariant", eq_text, "true"),
             ("kappa-constant", eq_text, "true"),
             ("kappa", near, O.kappa_blocks(blocks))],
            members=_block_members(blocks)))
    for stratum, total in (("2", 2), ("3", 3), ("3b", 3)):
        ops.append(_limit_check_op(rng, stratum, total))
    return ops


#: Steps of the limit-check ops: h = 0.05 halved 7 times.  At orders 2 and 3
#: the rounding error of the scaled Casoratian stays far below its O(h)
#: truncation error at every step; at order 4 it does not.
LIMIT_STEPS = [0.05 * 0.5**i for i in range(8)]
#: The CLI's default minimum fitted order, and the margin around it inside
#: which a draw is redrawn because rounding could flip the verdict.
LIMIT_MIN_ORDER, LIMIT_MARGIN = 0.9, 0.15
#: Smallest truncation error, relative to W, a limit-check draw may have.
LIMIT_NOISE_REL = 1e-7


def _limit_check_op(rng: random.Random, stratum: str, total: int) -> Op:
    """limit-check casoratian; the verdict comes from the exact errors."""
    while True:
        blocks = _draw_blocks(rng, total)
        x = _draw(rng, -1.0, 1.0, 3)
        w = O.wronskian_blocks(blocks, x)
        errors = [abs(O.scaled_casoratian_blocks(blocks, x, h) - w) for h in LIMIT_STEPS]
        order = O.fitted_order(LIMIT_STEPS, errors)
        # Rounding stays near 1e-10 relative at these orders, so every
        # truncation error must clear it by a wide factor.
        if (abs(order - LIMIT_MIN_ORDER) >= LIMIT_MARGIN
                and min(errors) >= LIMIT_NOISE_REL * abs(w)):
            break
    ok = order >= LIMIT_MIN_ORDER
    return Op(f"limit-check-{stratum}",
              ("limit-check", "casoratian", FILE, f"--at={x!r}",
               f"--h-start={LIMIT_STEPS[0]!r}", f"--h-count={len(LIMIT_STEPS)}"),
              _blocks_manifest(blocks),
              [("target", near, w), ("steps", eq_text, len(LIMIT_STEPS)),
               ("ok", eq_text, "true" if ok else "false")],
              members=_block_members(blocks), expect_exit=0 if ok else 3)


# ---------------------------------------------------------------------------
# classify-exact

def _poly_text(coeffs) -> str:
    return ",".join(str(Fraction(c)) for c in coeffs)


def _classify_op(stratum: str, rng: random.Random, polys: list,
                 monomial_powers=None) -> Op:
    size = len(polys)
    max_deg = max(len(p) - 1 for p in polys)
    width = max(max_deg + 1, 1)
    rank = O.fraction_rank([list(p) + [0] * (width - len(p)) for p in polys])
    full = rank == size and max_deg <= size - 1
    point = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    w_at = O.poly_wronskian_at(polys, point)
    c_at = O.poly_casoratian_at(polys, point)
    if monomial_powers is not None:
        lines = [f"member monomial k={a}" for a in monomial_powers]
    else:
        lines = [f"member poly coeffs={_poly_text(p)}" for p in polys]
    checks = [("members", eq_text, size), ("rank", eq_text, rank),
              ("span-full", eq_text, "true" if full else "false"),
              ("wronskian-poly", poly_value(point), w_at),
              ("casoratian-poly", poly_value(point), c_at)]
    if monomial_powers is not None and rank == size:
        a = monomial_powers
        lead = 1
        for j in range(size):
            for i in range(j):
                lead *= a[j] - a[i]
        power = sum(a) - size * (size - 1) // 2
        checks.append(("wronskian-poly", eq_poly, [0] * power + [lead]))
    op = Op(stratum, ("classify", FILE), "\n".join(lines) + "\n", checks,
            members=tuple(_poly_text(p) for p in polys))
    if rank < size:
        op.checks.append(("case", eq_text, "both_zero_dependent"))
    elif full:
        op.checks.append(("case", eq_text, "equal_nonzero"))
    else:
        op.extra = _independent_tag
    return op


def _independent_tag(keys, _rows) -> None:
    # Independent but not the full span: W is nonzero and the tag says
    # whether the two polynomials, already checked at a point, differ.
    w, c = O.parse_poly(keys["wronskian-poly"]), O.parse_poly(keys["casoratian-poly"])
    want = "unequal" if w != c else "not_covered"
    if not w or keys["case"] != want:
        raise Mismatch(f"case: got {keys['case']!r} with W = {keys['wronskian-poly']!r}, "
                       f"expected {want!r} and W nonzero")


def _rand_poly(rng: random.Random, degree: int, span: int = 9) -> list:
    coeffs = [rng.randint(-span, span) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-span, span + 1) if c]))
    return coeffs


#: Monomial strata: (size, largest power, degree sum).  Interpolation cost
#: grows with the degree sum, so each stratum draws powers near a fixed sum.
MONOMIAL_STRATA = ((2, 12, 12), (3, 10, 15), (4, 12, 22), (5, 11, 26), (6, 11, 30),
                   (7, 10, 28))
#: Member degrees of the independent and dependent polynomial strata.
POLY_DEGREES = ((12, 9), (10, 8, 6), (8, 7, 5, 3), (7, 6, 4, 3, 2))
DEPENDENT_DEGREES = ((6, 4), (5, 4, 3, 2))


def classify_round(rng: random.Random) -> list:
    ops = []
    # Monomial subsets {x^a}: Wronskian has a closed form.
    for size, top, total in MONOMIAL_STRATA:
        powers = rng.sample(range(top + 1), size)
        while abs(sum(powers) - total) > 1:
            powers = rng.sample(range(top + 1), size)
        polys = [[0] * a + [1] for a in powers]
        ops.append(_classify_op(f"classify-monomial-{size}", rng, polys, powers))
    # Full-span polynomial bases: equal_nonzero when independent.
    for size in (3, 5, 7):
        degrees = rng.sample(range(size), size)
        polys = [_rand_poly(rng, d) for d in degrees]
        ops.append(_classify_op(f"classify-full-{size}", rng, polys))
    # Independent polynomials of high degree: unequal or not_covered.
    for degrees in POLY_DEGREES:
        polys = [_rand_poly(rng, d) for d in degrees]
        ops.append(_classify_op(f"classify-poly-{len(degrees)}", rng, polys))
    # Dependent sets: the last member is a combination of the others.
    for degrees in DEPENDENT_DEGREES:
        polys = [_rand_poly(rng, d) for d in degrees]
        mix = [rng.randint(-3, 3) or 1 for _ in polys]
        width = max(len(p) for p in polys)
        last = [sum(c * (p[j] if j < len(p) else 0) for c, p in zip(mix, polys))
                for j in range(width)]
        polys.append(O.poly_trim(last) or [1])
        ops.append(_classify_op(f"classify-dependent-{len(polys)}", rng, polys))
    for n in (4, 8, 12, 16, 20):
        seed, trials = rng.randrange(1 << 30), 4
        ops.append(Op(
            f"verify-powers-{n}",
            ("verify-powers", str(n), f"--trials={trials}", f"--seed={seed}"), None,
            [("n", eq_text, n), ("trials", eq_text, trials), ("seed", eq_text, seed),
             ("expected", eq_exact, O.superfactorial(n)), ("ok", eq_text, "true")],
            members=tuple(f"monomial {k}" for k in range(n + 1))))
    for order in range(3, 11):
        while True:
            rows = [[rng.randint(-5, 5) for _ in range(order)] for _ in range(order)]
            det = O.fraction_det(rows)
            if det != 0:
                break
        seed = rng.randrange(1 << 30)
        text = "\n".join(" ".join(str(v) for v in r) for r in rows) + "\n"
        ops.append(Op(
            f"verify-basis-{order}", ("verify-basis", FILE, f"--seed={seed}"), text,
            [("order", eq_text, order), ("seed", eq_text, seed),
             ("expected", eq_exact, det * O.superfactorial(order - 1)),
             ("ok", eq_text, "true")],
            members=tuple(_poly_text(O.poly_trim(r)) for r in rows)))
    return ops


# ---------------------------------------------------------------------------
# solve-profiles

#: (m, x0) cases the seed's solver rejects on exact solution samples at
#: horizon 2m; they stay in the mix so a fix shows in error_rate.
REJECTED_CASES = ((7, 0), (5, 30), (3, 300))
SOLVE_QS = (1, 8, 50, 200)


def _solve_op(stratum: str, rng: random.Random, m: int, q: int, x0: int,
              horizon: int, known_rejected: bool = False) -> Op:
    lam = _draw(rng, 0.5, 2.0, 4) * rng.choice((1, -1))
    periodic = lam > 0
    profiles = []
    for _ in range(m):
        terms = [(rng.uniform(-1, 1), rng.uniform(-1, 1),
                  2 * math.pi * k if periodic else math.pi * (2 * k + 1))
                 for k in rng.sample(range(4), 2)]
        profiles.append(terms)

    def mu(i: int, x: float) -> float:
        return sum(a * math.cos(f * x) + b * math.sin(f * x) for a, b, f in profiles[i])

    # Each sample evaluates the profiles at its own x, so samples carry
    # independent rounding; the seed's rejections below depend on that.
    ys = []
    for n in range(horizon * q):
        x = x0 + n / q
        ys.append(sum(mu(i, x) * x**i for i in range(m)) * abs(lam) ** x)
    want = [[mu(i, x0 + t / q) for t in range(q)] for i in range(m)]
    checks = [("m", eq_text, m), ("q", eq_text, q), ("horizon", eq_text, horizon),
              ("parity", eq_text, "periodic" if periodic else "antiperiodic")]
    for i, ref in enumerate(want):
        checks.append((f"profile[{i}]", _profile_close, ref))
    argv = ("solve", FILE, f"--lam={lam!r}", f"--m={m}", f"--q={q}",
            f"--x0={x0}", f"--horizon={horizon}")
    text = "\n".join(repr(y) for y in ys) + "\n"
    return Op(stratum, argv, text, checks, known_rejected=known_rejected)


def _profile_close(got: str, want) -> bool:
    vals = [float(v) for v in got.split(",")]
    scale = max(1.0, max(abs(v) for v in want))
    return len(vals) == len(want) and all(
        abs(a - b) <= PROFILE_REL * scale for a, b in zip(vals, want))


def solve_round(rng: random.Random) -> list:
    ops = []
    # The largest node x0 + horizon - 1 stays at or below 8, where the seed's
    # windows validate every draw; at m = 6 it rejects some draws of horizon
    # 10 to 12, so those are left out (README, scope limits).
    cases = [(m, q) for m in range(1, 7) for q in SOLVE_QS]
    cases += [(2, 50), (4, 50), (6, 50)]
    for m, q in cases:
        horizon = rng.randint(m, min(2 * m, 9))
        ops.append(_solve_op(f"solve-m{m}-q{q}", rng, m, q, 0, horizon))
    for m, x0 in REJECTED_CASES:
        q = rng.choice(SOLVE_QS)
        ops.append(_solve_op(f"solve-rejected-m{m}-x{x0}", rng, m, q, x0, 2 * m,
                             known_rejected=True))
    return ops


# ---------------------------------------------------------------------------
# casoratian-scan

def _exact_basis(rng: random.Random, size: int) -> tuple:
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        det = O.fraction_det(rows)
        if det != 0:
            return rows, det


def _exact_manifest(rows, grid) -> str:
    lines = ["field exact"]
    lines += [f"member poly coeffs={_poly_text(r)}" for r in rows]
    lines.append("grid {} {} {}".format(*grid))
    return "\n".join(lines) + "\n"


def _grid_points(grid, exact: bool) -> list:
    a, b, n = grid
    if exact:
        a, b = Fraction(a), Fraction(b)
        return [a + (b - a) * Fraction(i, n - 1) for i in range(n)]
    a, b = float(a), float(b)
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _table_check(column: str, points: list, value_at, exact: bool):
    def check(_keys, rows) -> None:
        if not rows or rows[0] != ["x", column]:
            raise Mismatch(f"table: header {rows[:1]!r}, expected x,{column}")
        body = rows[1:]
        if len(body) != len(points):
            raise Mismatch(f"table: {len(body)} rows, expected {len(points)}")
        for i, (row, x) in enumerate(zip(body, points)):
            want = value_at(x)
            if exact:
                ok = Fraction(row[0]) == x and Fraction(row[1]) == want
            else:
                ok = (abs(float(row[0]) - x) <= 1e-12 * max(1.0, abs(x))
                      and O.close(O.parse_number(row[1]), want, FLOAT_REL))
            if not ok:
                raise Mismatch(f"table[{i}]: got {row!r}, expected {x!r},{want!r}")
    return check


def _fundamental_check(points: list, value_at, exact: bool):
    mags = [abs(complex(value_at(x))) for x in points]
    low = min(mags)

    def witness_ok(got: str, _want) -> bool:
        x = Fraction(got) if exact else float(got)
        return abs(complex(value_at(x))) <= low * (1 + FLOAT_REL)

    return [("fundamental", eq_text, "true"),
            ("min-abs-casoratian", near, low),
            ("witness-x", witness_ok, low)]


def scan_round(rng: random.Random) -> list:
    ops = []
    commands = ("casoratian", "casoratian-h", "delta-casoratian", "fundamental")
    for size in (3, 4, 6):
        for k, command in enumerate(commands):
            rows, det = _exact_basis(rng, size)
            # 50 to 200 points, fixed per stratum, with a fixed step: the
            # exact entries' bit sizes then differ little between seeds.
            count = 50 * (1 + (size + k) % 4)
            lo = Fraction(rng.randint(-80, 0), 8)
            step = Fraction(3, 8)
            grid = (str(lo), str(lo + step * (count - 1)), count)
            points = _grid_points(grid, exact=True)
            h = Fraction(1)
            argv = [command, FILE, "--csv"]
            if command == "casoratian-h":
                h = Fraction(rng.randint(1, 9), rng.randint(2, 9))
                argv = ["casoratian", FILE, "--csv", f"--step={h}"]
            value = det * O.superfactorial(size - 1) * h ** (size * (size - 1) // 2)
            op = Op(f"{command}-exact-{size}", tuple(argv), _exact_manifest(rows, grid),
                    [("field", eq_text, "exact"), ("members", eq_text, size),
                     ("points", eq_text, count)],
                    members=tuple(_poly_text(O.poly_trim(r)) for r in rows))
            if command == "fundamental":
                op.checks += _fundamental_check(points, lambda x, v=value: v, True)
            else:
                column = "delta_casoratian" if command == "delta-casoratian" else "casoratian"
                op.extra = _table_check(column, points, lambda x, v=value: v, True)
            ops.append(op)
    # fundamental stops at order 5: at order 6 the seed's degeneracy floor
    # calls some fundamental sets degenerate (README, scope limits).
    float_cases = [(c, t) for c in ("casoratian", "delta-casoratian") for t in (2, 4, 6)]
    float_cases += [("fundamental", t) for t in (2, 4, 5)]
    for k, (command, total) in enumerate(float_cases):
        blocks = _draw_blocks(rng, total, spread=1.0)
        # Inside [-2, 2]: wider grids at order 6 put the Casoratian under
        # the seed's degeneracy floor (README, scope limits).
        start = _draw(rng, -2.0, 0.0, 3)
        count = 50 * (1 + k % 4)
        grid = (repr(start), repr(round(start + rng.uniform(1, 2), 3)), count)
        points = _grid_points(grid, exact=False)

        def value_at(x, b=blocks):
            return O.casoratian_blocks(b, x)

        op = Op(f"{command}-float-{total}", (command, FILE, "--csv"),
                _blocks_manifest(blocks, grid),
                [("field", eq_text, "float"), ("members", eq_text, total),
                 ("points", eq_text, count)],
                members=_block_members(blocks))
        if command == "fundamental":
            op.checks += _fundamental_check(points, value_at, False)
        else:
            column = "delta_casoratian" if command == "delta-casoratian" else "casoratian"
            op.extra = _table_check(column, points, value_at, False)
        ops.append(op)
    return ops


ROUNDS = {
    "kappa-float": kappa_round,
    "classify-exact": classify_round,
    "solve-profiles": solve_round,
    "casoratian-scan": scan_round,
}
WORKLOADS = tuple(ROUNDS)


class OpStream:
    """The seeded, endless, repeat-free op sequence of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in ROUNDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set = set()
        self.rounds = 0

    def next_round(self) -> list:
        """One round: every stratum once, in a seeded order, no repeats."""
        make = ROUNDS[self.workload]
        fresh = []
        for op in make(self.rng):
            while op.key() in self.seen:
                op = next(o for o in make(self.rng) if o.stratum == op.stratum)
            self.seen.add(op.key())
            fresh.append(op)
        self.rng.shuffle(fresh)
        self.rounds += 1
        return fresh
