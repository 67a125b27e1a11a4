"""Parsing and formatting of exact rational numbers.

All numeric data in this library is `fractions.Fraction`: arbitrary
precision, always in lowest terms, with a positive denominator.  Floats are
rejected in instance data on purpose; they only appear in optional CLI
display output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .errors import InputError


def frac(x) -> Fraction:
    """Convert ``x`` (int, Fraction, or a string like ``"6/5"``) exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        try:
            # "123" and "123/456" in ASCII digits skip Fraction's regex;
            # anything else (signs, spaces, "_", decimals) goes through it.
            if (num.isascii() and num.isdigit()
                    and (not slash or den.isascii() and den.isdigit())):
                return Fraction(int(num), int(den) if slash else 1)
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {x!r}") from exc
    if isinstance(x, float):
        raise InputError(
            f"refusing float {x!r}: rational strings like '1/3' are required"
        )
    raise InputError(f"cannot interpret {x!r} as a rational number")


def ratio(x) -> Tuple[int, int]:
    """``x`` as integers ``(a, b)`` with ``x == a/b`` and ``b > 0``, not
    necessarily in lowest terms.

    ASCII ``"123"`` and ``"123/456"`` build no Fraction; every other input
    goes through :func:`frac`, which also raises its errors.
    """
    if type(x) is str:
        num, slash, den = x.partition("/")
        if (num.isascii() and num.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            try:
                b = int(den) if slash else 1
                if b:
                    return int(num), b
            except ValueError:      # more digits than int() converts
                pass
    q = frac(x)
    return q.numerator, q.denominator


def fmt(q: Fraction) -> str:
    """Render a Fraction as ``"num/den"``, or just ``"num"`` for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
