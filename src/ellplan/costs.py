"""Query-cost accounting: exact 2^(delta ell) savings and the reference table.

Every factor is an exact big integer first and a rendering second, so "about
4.8 x 10^24" is pure formatting on top of 2^82.  Rendering keeps two
significant digits and rounds half-up; digit counts of the big integers are
computed by bracketing against powers of ten, never by stringifying a number
with thousands of digits.

Reference values rendered from truncated decimals elsewhere can disagree with
half-up rounding in the last digit (9.6 vs 9.7), so comparisons against
embedded expectations accept a one-unit step of the final rendered digit,
including the wrap across an exponent boundary (9.9e5 vs 1.0e6).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from ellplan._value import Frozen
from ellplan.certified import DEFAULT_POLICY, RationalLike, RefinementPolicy
from ellplan.planner import EpsSpec, ell_bf, ell_ps, ell_star


def decimal_digit_count(n: int) -> int:
    """Number of decimal digits of n >= 1, without building str(n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # bit_length * log10(2) estimates within 1; correct by direct bracketing
    d = max(1, round(n.bit_length() * 0.30103))
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


class BigMagnitude(Frozen):
    """An exact power of two plus its two-significant-digit rendering.

    sci_mantissa is a string like "4.8"; the rendered value is
    sci_mantissa * 10^sci_exponent.  Half-up rounding means the rendering can
    sit up to half a unit of the second digit away from exact, which near a
    mantissa of 1.0 is worse than 1 percent; callers comparing renderings
    should use mantissa_adjacent rather than a relative-error gate.
    """

    exact: int
    sci_mantissa: str
    sci_exponent: int

    @classmethod
    def from_int(cls, n: int) -> "BigMagnitude":
        if n < 1:
            raise ValueError(f"need a positive integer, got {n}")
        d = decimal_digit_count(n)
        if d == 1:
            m = n * 10
        elif d == 2:
            m = n
        else:
            scale = 10 ** (d - 2)
            m = (n + scale // 2) // scale
        exponent = d - 1
        if m == 100:  # carry: 99.5+ rounds into the next decade
            m = 10
            exponent = d
        return cls(n, f"{m // 10}.{m % 10}", exponent)

    @property
    def sci(self) -> str:
        return f"{self.sci_mantissa}e{self.sci_exponent}"

    def __str__(self) -> str:
        return self.sci


def mantissa_adjacent(a_mantissa: str, a_exp: int, b_mantissa: str, b_exp: int) -> bool:
    """Within one step on the two-significant-digit grid, wrapping decades.

    The grid per decade is 1.0, 1.1, ..., 9.9 (90 points); 9.9e5 and 1.0e6
    are neighbors.
    """

    def index(mantissa: str, exp: int) -> int:
        units = int(mantissa.replace(".", ""))
        if not 10 <= units <= 99:
            raise ValueError(f"not a two-digit mantissa: {mantissa!r}")
        return exp * 90 + (units - 10)

    return abs(index(a_mantissa, a_exp) - index(b_mantissa, b_exp)) <= 1


def savings_factor(ell_hi: int, ell_lo: int) -> BigMagnitude:
    """Exact 2^(ell_hi - ell_lo), the per-evaluation enumeration savings."""
    if ell_lo < 1 or ell_hi < 1:
        raise ValueError("depths must be positive")
    if ell_hi < ell_lo:
        raise ValueError(f"savings need ell_hi >= ell_lo, got {ell_hi} < {ell_lo}")
    return BigMagnitude.from_int(1 << (ell_hi - ell_lo))


class TableRow(Frozen):
    """One slack's depths and both savings factors."""

    eps: EpsSpec
    ell_bf: int
    ell_ps: int
    ell_star: int
    factor_ps: BigMagnitude
    factor_star: BigMagnitude


# the reference slacks, in presentation order
PAPER_EPS = (
    EpsSpec(Fraction(1, 10)),
    EpsSpec(Fraction(1, 20)),
    EpsSpec(Fraction(1, 100)),
    EpsSpec(Fraction(1, 1000)),
    EpsSpec(Fraction(1, 10000)),
)


class ExpectedRow(Frozen):
    """Embedded expected values for --check style comparisons."""

    eps_text: str
    ell_bf: int
    ell_ps: int
    ell_star: int
    ps_mantissa: str
    ps_exponent: int
    star_mantissa: str
    star_exponent: int


# integer columns are exact; factor columns carry the source's own rounding
# and are compared with the one-step mantissa tolerance
EXPECTED_TABLE = (
    ExpectedRow("1e-1", 11, 2, 2, "5.1", 2, "5.1", 2),
    ExpectedRow("5e-2", 21, 4, 4, "1.3", 5, "1.3", 5),
    ExpectedRow("1e-2", 101, 19, 18, "4.8", 24, "9.6", 24),
    ExpectedRow("1e-3", 1001, 184, 184, "8.8", 245, "8.8", 245),
    ExpectedRow("1e-4", 10001, 1840, 1839, "5.1", 2456, "1.0", 2457),
)


def format_eps(eps: Union[EpsSpec, Fraction]) -> str:
    """Canonical display: 1e-3 / 5e-2 style when possible, else decimal, else p/q."""
    value = eps.eps if isinstance(eps, EpsSpec) else eps
    p, q = value.numerator, value.denominator
    if value >= 1:
        return str(value)
    rest = q
    for base in (2, 5):
        while rest % base == 0:
            rest //= base
    if rest != 1:
        return f"{p}/{q}"
    # terminating decimal: find the smallest k with p * 10^k divisible by q
    k = 0
    scaled = p
    while scaled % q != 0:
        scaled *= 10
        k += 1
    digits = scaled // q
    if digits < 10:
        return f"{digits}e-{k}"
    text = str(digits).rjust(k, "0")
    return "0." + text


def _row_for(eps: EpsSpec, policy: RefinementPolicy) -> TableRow:
    # the three depths only: a full plan() would also build the exact
    # rho(ell_star) and the sharp certificate, and a row uses neither
    bf, ps, star = ell_bf(eps), ell_ps(eps, policy), ell_star(eps, policy)
    return TableRow(
        eps=eps,
        ell_bf=bf,
        ell_ps=ps,
        ell_star=star,
        factor_ps=savings_factor(bf, ps),
        factor_star=savings_factor(bf, star),
    )


def reproduce_table(
    eps_list: Optional[Sequence[Union[EpsSpec, RationalLike]]] = None,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> list[TableRow]:
    """Rows for the given slacks in input order (default: the five references)."""
    specs = [
        e if isinstance(e, EpsSpec) else EpsSpec.from_rational(e)
        for e in (PAPER_EPS if eps_list is None else eps_list)
    ]
    if not specs:
        raise ValueError("eps_list must be non-empty")
    return [_row_for(s, policy) for s in specs]


class CellMismatch(Frozen):
    row: str
    column: str
    expected: str
    got: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}: expected {self.expected}, got {self.got}"


class TableCheck(Frozen):
    mismatches: tuple[CellMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_against_expected(
    rows: Optional[Sequence[TableRow]] = None,
    expected: Sequence[ExpectedRow] = EXPECTED_TABLE,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> TableCheck:
    """Compare computed rows against embedded expectations, cell by cell.

    Integer columns must match exactly; factor renderings may differ by one
    step of the final digit (the embedded values come from a source whose
    rounding convention is unstated).
    """
    if rows is None:
        rows = reproduce_table([EpsSpec.parse(e.eps_text) for e in expected], policy)
    if len(rows) != len(expected):
        raise ValueError(f"{len(rows)} rows against {len(expected)} expectations")
    bad: list[CellMismatch] = []
    for row, want in zip(rows, expected):
        label = format_eps(row.eps)
        for column, got, exp in (
            ("ell_bf", row.ell_bf, want.ell_bf),
            ("ell_ps", row.ell_ps, want.ell_ps),
            ("ell_star", row.ell_star, want.ell_star),
        ):
            if got != exp:
                bad.append(CellMismatch(label, column, str(exp), str(got)))
        for column, mag, m, e in (
            ("factor_ps", row.factor_ps, want.ps_mantissa, want.ps_exponent),
            ("factor_star", row.factor_star, want.star_mantissa, want.star_exponent),
        ):
            if not mantissa_adjacent(mag.sci_mantissa, mag.sci_exponent, m, e):
                bad.append(CellMismatch(label, column, f"{m}e{e}", mag.sci))
    return TableCheck(tuple(bad))


_TEXT_HEADERS = ("eps", "ell_bf", "ell_ps", "ell_star", "factor_ps", "factor_star")


def _row_cells(row: TableRow) -> tuple[str, ...]:
    return (
        format_eps(row.eps),
        str(row.ell_bf),
        str(row.ell_ps),
        str(row.ell_star),
        row.factor_ps.sci,
        row.factor_star.sci,
    )


def render_table_text(rows: Sequence[TableRow]) -> str:
    """Aligned plain-text table, byte-stable for golden comparisons."""
    body = [_row_cells(r) for r in rows]
    widths = [
        max(len(h), *(len(cells[i]) for cells in body)) if body else len(h)
        for i, h in enumerate(_TEXT_HEADERS)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(_TEXT_HEADERS, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for cells in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def render_table_csv(rows: Sequence[TableRow]) -> str:
    lines = [",".join(_TEXT_HEADERS)]
    for row in rows:
        lines.append(",".join(_row_cells(row)))
    return "\n".join(lines) + "\n"
