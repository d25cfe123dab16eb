"""Independent oracles for the benchmark: closed forms and exact arithmetic.

Nothing here imports casowron.  Every expected value a workload checks a
report against comes from this module: the closed-form kappa = W/C of
exponential-polynomial blocks, the closed-form Wronskian of those blocks,
a Fraction determinant, and parsers for the CLI's ``key: value`` reports.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction


def superfactorial(n: int) -> int:
    """Product of k! for k = 0..n."""
    out = 1
    for k in range(1, n + 1):
        out *= math.factorial(k)
    return out


# ---------------------------------------------------------------------------
# exponential-polynomial blocks {x^k e^(mu x) : k < r}

def kappa_blocks(blocks) -> complex:
    """W/C of the union of blocks [(mu_j, r_j)], members ordered block by block.

    kappa = prod_{i<j} (mu_j - mu_i)^(r_i r_j)
            / (prod_j t_j^(r_j (r_j - 1) / 2) prod_{i<j} (t_j - t_i)^(r_i r_j))
    with t_j = exp(mu_j).
    """
    mus = [complex(mu) for mu, _ in blocks]
    rs = [r for _, r in blocks]
    ts = [cmath.exp(mu) for mu in mus]
    num = 1 + 0j
    den = 1 + 0j
    for j in range(len(mus)):
        den *= ts[j] ** (rs[j] * (rs[j] - 1) // 2)
        for i in range(j):
            num *= (mus[j] - mus[i]) ** (rs[i] * rs[j])
            den *= (ts[j] - ts[i]) ** (rs[i] * rs[j])
    return num / den


def wronskian_blocks(blocks, x) -> complex:
    """W(x) of the blocks: prod sf(r_j - 1) prod_{i<j} (mu_j - mu_i)^(r_i r_j) e^(sum r_j mu_j x)."""
    mus = [complex(mu) for mu, _ in blocks]
    rs = [r for _, r in blocks]
    out = 1 + 0j
    for j in range(len(mus)):
        out *= superfactorial(rs[j] - 1)
        for i in range(j):
            out *= (mus[j] - mus[i]) ** (rs[i] * rs[j])
    return out * cmath.exp(sum(r * mu for mu, r in zip(mus, rs)) * x)


def casoratian_blocks(blocks, x) -> complex:
    """C(x) = W(x) / kappa for the blocks."""
    return wronskian_blocks(blocks, x) / kappa_blocks(blocks)


def scaled_casoratian_blocks(blocks, x, h) -> complex:
    """C_h(x) / h^(n(n-1)/2) of the blocks, n their total size.

    Shifting by h is a unit shift of y = x/h on the blocks with bases
    h*mu_j, up to the factor h^k of each member x^k e^(mu x).
    """
    n = sum(r for _, r in blocks)
    scaled = [(h * complex(mu), r) for mu, r in blocks]
    powers = sum(r * (r - 1) // 2 for _, r in blocks)
    return (h ** powers * casoratian_blocks(scaled, x / h)) / h ** (n * (n - 1) // 2)


def fitted_order(hs, errors) -> float:
    """The CLI's documented limit-check fit, applied to exact errors.

    Least-squares slope of log(error) against log(h), over the steps from
    the largest h down to the one with the smallest error.
    """
    pairs = sorted(((h, e) for h, e in zip(hs, errors) if e > 0), key=lambda p: -p[0])
    if not pairs:
        return math.inf
    best = min(range(len(pairs)), key=lambda i: pairs[i][1])
    kept = pairs[: best + 1] if best >= 1 else pairs
    if len(kept) < 2:
        return 0.0
    xs = [math.log(h) for h, _ in kept]
    ys = [math.log(e) for _, e in kept]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((a - xbar) * (b - ybar) for a, b in zip(xs, ys))
            / sum((a - xbar) ** 2 for a in xs))


def close(got, want, rel: float) -> bool:
    """|got - want| <= rel * |want|, for real or complex numbers."""
    return abs(complex(got) - complex(want)) <= rel * abs(complex(want))


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions

def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                a[i] = [vi - f * vk for vi, vk in zip(a[i], a[k])]
    return det


def fraction_rank(rows) -> int:
    """Rank of a rectangular rational matrix."""
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0
    rank = 0
    for c in range(len(a[0])):
        p = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# polynomials as coefficient lists, low power first

def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs) -> list:
    return [k * c for k, c in enumerate(coeffs)][1:]


def poly_trim(coeffs) -> list:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_wronskian_at(polys, x) -> Fraction:
    """W of the polynomials at x: rows of successive derivatives."""
    rows, cur = [], [list(p) for p in polys]
    for _ in range(len(polys)):
        rows.append([poly_eval(p, x) for p in cur])
        cur = [poly_derivative(p) for p in cur]
    return fraction_det(rows)


def poly_casoratian_at(polys, x, h=1) -> Fraction:
    """C of the polynomials at x: rows of successive shifts by h."""
    n = len(polys)
    return fraction_det([[poly_eval(p, x + i * h) for p in polys] for i in range(n)])


def parse_poly(text: str) -> list:
    """Invert casowron's polynomial text, e.g. ``-3/2*x^4 + x - 7``."""
    text = text.strip()
    if text == "0":
        return []
    tokens = text.split(" ")
    terms = [tokens[0]]
    signs = [1]
    if terms[0].startswith("-"):
        signs[0] = -1
        terms[0] = terms[0][1:]
    for i in range(1, len(tokens), 2):
        if tokens[i] not in "+-" or i + 1 >= len(tokens):
            raise ValueError(f"bad polynomial text {text!r}")
        signs.append(1 if tokens[i] == "+" else -1)
        terms.append(tokens[i + 1])
    coeffs: dict = {}
    for sign, body in zip(signs, terms):
        if "x" not in body:
            power, mag = 0, Fraction(body)
        else:
            head, _, var = body.rpartition("*") if "*" in body else ("1", "", body)
            mag = Fraction(head)
            if var == "x":
                power = 1
            elif var.startswith("x^"):
                power = int(var[2:])
            else:
                raise ValueError(f"bad polynomial term {body!r}")
        if power in coeffs:
            raise ValueError(f"repeated power in {text!r}")
        coeffs[power] = sign * mag
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return poly_trim(out)


# ---------------------------------------------------------------------------
# report parsing

def parse_report(text: str) -> tuple:
    """Split a CLI report into ({key: value}, csv rows).

    Keys repeat only for ``note``; the last one wins, which no check uses.
    Rows after a ``table:`` line are comma-separated until the next key.
    """
    keys: dict = {}
    rows: list = []
    in_table = False
    for line in text.splitlines():
        if line == "table:":
            in_table = True
            continue
        if in_table and ": " not in line:
            rows.append(line.split(","))
            continue
        in_table = False
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unparseable report line {line!r}")
        keys[key] = value
    return keys, rows


def parse_number(text: str) -> complex:
    """A float or complex as casowron prints it (17 significant digits)."""
    return complex(text) if text.endswith("j") else complex(float(text), 0.0)
