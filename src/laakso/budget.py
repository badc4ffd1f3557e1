"""Every size budget, and the checks that raise ``ResourceLimit`` before work past one starts.

The products D_k of the branching sequence grow without bound; the checks
on D_k bound its bits from below by n and k alone (``power_bits``).
"""

import sys

from .errors import ResourceLimit

#: Largest a of a derived scale s = 2**(a/b), checked before 2**a is built.
#: With b >= 2 it keeps n = floor(s) below 2**8192, under 2 500 digits.
MAX_SCALE_LOG2 = 1 << 14
#: Most levels ``Space.wormholes`` lists; at s = 3, order 11 has 118 100.
MAX_LISTED_LEVELS = 200_000
#: Most bits of n**period, a tail limit's growth over one period of orders.
MAX_TAIL_BITS = 1 << 16
#: Most vertices ``oracle.build`` assembles.
MAX_VERTICES = 1_000_000


def power_bits(n: int, k: int) -> int:
    """k * floor(log2 n): n**k, and so D_k, has more bits than this."""
    return k * (n.bit_length() - 1)


def check_scale(log2: int) -> None:
    """Refuse a derived scale s = 2**(log2/b) before 2**log2 is built."""
    if log2 > MAX_SCALE_LOG2:
        raise ResourceLimit(f"dimension gives s = 2^(a/b) with a over {MAX_SCALE_LOG2}: "
                            "over the scale budget")


def check_tail(n: int, period: int) -> None:
    """Refuse a tail period whose lower bound on the bits of n**period passes MAX_TAIL_BITS."""
    if power_bits(n, period) > MAX_TAIL_BITS:
        raise ResourceLimit(f"a tail of period {period} is over the budget of {MAX_TAIL_BITS} bits")


def check_listing(n: int, order: int, width, count) -> None:
    """Refuse more than MAX_LISTED_LEVELS order-k levels in a width of [0, 1]; count() counts them.

    D_k >= n**k bounds the count below: a width w holds at least w * n**k / 2 - 4
    levels, compared through bit lengths before ``count`` builds D_k.
    """
    # with width = p/q: p * n**k >= 2**low, and 2 * (MAX_LISTED_LEVELS + 4) * q < 2**high
    low = width.numerator.bit_length() - 1 + power_bits(n, order)
    high = (2 * (MAX_LISTED_LEVELS + 4) * width.denominator).bit_length()
    if low >= high or count() > MAX_LISTED_LEVELS:
        # the count itself is not printed: at high orders it has thousands of digits
        raise ResourceLimit(f"more than {MAX_LISTED_LEVELS} order-{order} levels: "
                            "over the listing budget")


def check_vertices(depth: int, rows: int) -> None:
    """Refuse 2**depth columns by rows over MAX_VERTICES; 2**depth is formed only when small."""
    if depth >= MAX_VERTICES.bit_length() or (1 << depth) * rows > MAX_VERTICES:
        # the count is not printed: it may be too long for str()
        raise ResourceLimit(f"the graph has more vertices than the budget of {MAX_VERTICES}")


def check_printable(n: int, k: int, what: str) -> None:
    """Refuse D_k >= n**k unbuilt when n**k is too long to print; n**k is formed under 8 * limit bits."""
    limit = sys.get_int_max_str_digits()
    if limit and (power_bits(n, k) >= 4 * limit or n ** k >= 10 ** limit):
        raise _unprintable(what)


def check_exponent(literal: str) -> None:
    """Refuse a decimal literal ``<m>e<N>`` before ``Fraction`` builds 10**|N| for it.

    m and N are read from the text around its first e, and |N| is refused
    when ``power_bits(10, |N|)``, a lower bound on the bits of 10**|N|,
    reaches the 4 * limit bits past which ``check_printable`` refuses a
    power unbuilt.  A smaller power is built, and what cannot be printed is
    refused at output by ``text``; text that is no such literal is left for
    ``Fraction`` to refuse.
    """
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = literal.lower().partition("e")
    digits = _unsigned(exponent).lstrip("0")
    if not (limit and digits.isdecimal() and _unsigned(mantissa).replace(".", "", 1).isdecimal()):
        return
    if len(digits) > len(str(4 * limit)) or power_bits(10, int(digits)) >= 4 * limit:
        # the exponent is not printed: it may be too long for str()
        raise ResourceLimit(f"a literal's power of ten has {4 * limit} bits or more: "
                            "over the int-to-str limit")


def _unsigned(text: str) -> str:
    """A signed decimal's digits: its outer whitespace, underscores and sign dropped."""
    text = text.strip().replace("_", "")
    return text[1:] if text[:1] in ("+", "-") else text


def text(value, what: str = "a number to print") -> str:
    """str(value), or ResourceLimit when it passes Python's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:  # raised only past the limit
        raise _unprintable(what) from None


def _unprintable(what: str) -> ResourceLimit:
    limit = sys.get_int_max_str_digits()
    return ResourceLimit(f"{what} has more than {limit} digits: over the int-to-str limit")
