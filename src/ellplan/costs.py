"""Query-cost accounting: 2^(delta ell) savings and the reference table.

A factor is held as its power of two, so "about 4.8 x 10^24" is 2^82 read
through certified logarithms: the rendering keeps two significant digits,
rounds half-up, and comes from comparisons of d log 2 with k log 10 +
log(2j+1), never from the integer 2^d, whose digits would grow like 1/eps.

Reference values rendered from truncated decimals elsewhere can disagree with
half-up rounding in the last digit (9.6 vs 9.7), so comparisons against
embedded expectations accept a one-unit step of the final rendered digit,
including the wrap across an exponent boundary (9.9e5 vs 1.0e6).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from ellplan import certified
from ellplan._value import Frozen
from ellplan.certified import DEFAULT_POLICY, RationalLike, RefinementPolicy
from ellplan.planner import EpsSpec, _ell_star_search, _eps_value, _terminating_decimal, ell_bf


# digits of a savings factor's power d: 2^d with 1,300 digits in d renders in
# about 0.26 s (1,000 digits: 0.25 s; 2,000: 0.91 s), and every row that
# `table` answers at the default 4096-bit cap (down to 1e-1243) fits;
# records refuse a longer d from its text
POW2_DIGITS = 1300
_POW2_BOUND = 10**POW2_DIGITS


def _rendering_index(d: int) -> int:
    """The half-up two-digit rendering of 2^d as a grid index 90 k + (j - 10).

    Index i, with (k, j - 10) = divmod(i, 90), renders j/10 * 10^k and ends
    at the threshold (2j+1)/2 * 10^(k-1), so 2^d renders as the least index
    whose threshold exceeds it, the carry to 1.0e(k+1) included.  No
    threshold is a power of two (the odd (2j+1) 5^(k-1) >= 21 is not, and
    for k = 0 the even 10 * 2^(d+1) is not odd), so each comparison of
    (d+1) log 2 with (k-1) log 10 + log(2j+1) resolves.
    """
    log2, log10 = certified.log1p_of(1), certified.log1p_of(9)
    side = (d + 1) * log2

    def below(i: int) -> bool:
        k, units = divmod(i, 90)
        threshold = (k - 1) * log10 + certified.log1p_of(2 * units + 20)
        verdict = certified.cmp_certified(side, threshold).verdict
        if verdict is certified.Verdict.UNRESOLVED:
            raise certified.PrecisionExhausted("rendering of 2^d unresolved")
        return verdict is certified.Verdict.LESS

    # log10(2^d) within about 2^-60; 64-bit steps let nearby d share caches
    p = 64 * (d.bit_length() // 64 + 2)
    x = d * certified.enclose_log1p(1, p).lo / certified.enclose_log1p(9, p).hi
    k, fraction = divmod(x, 1)
    # a float guess at the index; the certified comparisons alone settle it
    return certified.least_holding(below, 90 * k + round(10 ** (1 + float(fraction))) - 10, 0)


class BigMagnitude(Frozen):
    """The power of two 2^pow2 and its two-significant-digit rendering.

    sci_mantissa is a string like "4.8"; the rendered value is
    sci_mantissa * 10^sci_exponent.  Half-up rounding means the rendering can
    sit up to half a unit of the second digit away from exact, which near a
    mantissa of 1.0 is worse than 1 percent; callers comparing renderings
    should use mantissa_adjacent rather than a relative-error gate.
    """

    pow2: int

    def __post_init__(self) -> None:
        if type(self.pow2) is not int or self.pow2 < 0:
            raise ValueError(f"need an int power >= 0, got {self.pow2!r}")
        if self.pow2 >= _POW2_BOUND:  # the rendering's cost grows with d
            raise ValueError(f"savings factor 2^d: d has more than {POW2_DIGITS} digits")
        exponent, units = divmod(_rendering_index(self.pow2), 90)
        object.__setattr__(self, "sci_mantissa", f"{1 + units // 10}.{units % 10}")
        object.__setattr__(self, "sci_exponent", exponent)

    @property
    def sci(self) -> str:
        return f"{self.sci_mantissa}e{self.sci_exponent}"


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
    """2^(ell_hi - ell_lo), the per-evaluation enumeration savings."""
    if ell_lo < 1 or ell_hi < 1:
        raise ValueError("depths must be positive")
    return BigMagnitude(ell_hi - ell_lo)  # which rejects ell_hi < ell_lo


class TableRow(Frozen):
    """One slack's depths and both savings factors."""

    eps: EpsSpec
    ell_bf: int
    ell_ps: int
    ell_star: int
    factor_ps: BigMagnitude
    factor_star: BigMagnitude


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

# the reference slacks, in presentation order
PAPER_EPS = tuple(EpsSpec.parse(row.eps_text) for row in EXPECTED_TABLE)


def format_eps(eps: Union[EpsSpec, Fraction]) -> str:
    """Canonical display: 1e-3 / 5e-2 style when possible, else decimal, else p/q."""
    value = eps.eps if isinstance(eps, EpsSpec) else eps
    decimal = _terminating_decimal(value) if value < 1 else None
    if decimal is None:
        return str(value)
    digits, k = decimal
    if digits < 10:
        return f"{digits}e-{k}"
    text = str(digits).rjust(k, "0")
    return "0." + text


def _row_for(eps: EpsSpec, policy: RefinementPolicy) -> TableRow:
    # the three depths only: a full plan() would also build the exact
    # rho(ell_star) and the sharp certificate, and a row uses neither; the
    # walk to ell_star starts from ell_ps, so one search gives both
    bf = ell_bf(eps)
    ps, star, _ = _ell_star_search(eps.eps, policy)
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
    specs = [EpsSpec(_eps_value(e)) for e in (PAPER_EPS if eps_list is None else eps_list)]
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
    """The table against its embedded values: ok, or the cells that differ."""

    ok: bool
    mismatches: tuple[CellMismatch, ...]

    def __post_init__(self):
        if self.ok != (not self.mismatches):
            raise ValueError("ok disagrees with mismatches")


def check_against_expected(
    rows: Sequence[TableRow], expected: Sequence[ExpectedRow] = EXPECTED_TABLE
) -> TableCheck:
    """Compare computed rows against embedded expectations, cell by cell.

    Integer columns must match exactly; factor renderings may differ by one
    step of the final digit (the embedded values come from a source whose
    rounding convention is unstated).  Rows pair with expectations by
    position, so each row must be at its expectation's slack; a row that is
    not raises ValueError, as a wrong row count does.
    """
    if len(rows) != len(expected):
        raise ValueError(f"{len(rows)} rows against {len(expected)} expectations")
    bad: list[CellMismatch] = []
    for row, want in zip(rows, expected):
        label = format_eps(row.eps)
        if row.eps.eps != Fraction(want.eps_text):
            raise ValueError(
                f"row {label} is not at the expected slack {want.eps_text}"
            )
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
    return TableCheck(not bad, tuple(bad))


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
