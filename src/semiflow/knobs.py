"""Numeric knobs: a dataclass field states its accepted interval once, beside
its default, as knob(default, "[0, inf)"). One rule decides: a value is
accepted only inside its interval, NaN is inside none, and +-inf only where
that end is infinite and closed ("[-inf, inf]" takes anything but NaN).
"""

from dataclasses import field, fields


def knob(default, interval: str):
    """A dataclass field with its default and its accepted interval."""
    return field(default=default, metadata={"interval": interval})


def shown(value) -> str:
    """value as an error line prints it: an integer of more than 20 digits
    (1e300 from a config becomes a 301-digit int) as its first six digits
    and its power of ten, -1.23456e+300."""
    text = str(value)
    digits = text.lstrip("-")
    if isinstance(value, int) and len(digits) > 20:
        return f"{text[:-len(digits)]}{digits[0]}.{digits[1:6]}e+{len(digits) - 1}"
    return text


def check(name: str, value, interval: str, error: type = ValueError) -> None:
    """Raise error, naming name, unless value lies inside interval."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    if not (above and below):
        raise error(f"{name} must be in {interval}, got {shown(value)}")


def check_fields(obj) -> None:
    """check every field of the dataclass instance obj that has an interval."""
    for f in fields(obj):
        if "interval" in f.metadata:
            check(f.name, getattr(obj, f.name), f.metadata["interval"])
