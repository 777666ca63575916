"""Built-in demo configurations.

Two configurations ship with the package: a three-dimensional symbolic
setup used by the algebraic test batteries, and a two-dimensional setup
with a mildly negative product tree used by the numerical pipelines.
Each is defined once, as the rule config ``builtin_rule_config``
returns; its sector is generated from that config.  Numeric parameter
values are configuration choices, not claims.  The ``json_*``
functions are the shape checks every config reader shares; each error
names the offending key."""

from fractions import Fraction

PAM3D = {
    "d": 3,
    "scaling": ["1", "1", "1"],
    "r0": "-3/2",
    "beta0": "2",
    "ell": "4",
    "ell1": "1",
    "s0": "-1/2",
}

NUMERIC2D = {
    "d": 2,
    "scaling": ["1", "1"],
    "r0": "-21/20",
    "beta0": "19/10",
    "ell": "2",
    "ell1": "1/20",
    "s0": "0",
}


# name -> (params, maxOmega, maxEdges); both use the pam rule with L = 2
BUILTINS = {"pam3d": (PAM3D, 4, 5), "numeric2d": (NUMERIC2D, 3, 3)}


def builtin_rule_config(name: str) -> dict:
    """Rule files equivalent to the built-in sectors, as plain dicts."""
    params, max_omega, max_edges = BUILTINS[name]
    z = [0] * params["d"]
    return {"K": [[["O", z], ["K", z], ["K", z]]], "maxOmega": max_omega,
            "L": "2", "maxEdges": max_edges, "params": params}


def json_integer(value, name: str, low: int = 0,
                 high: int | None = None) -> int:
    """A JSON integer in [low, high); booleans, floats and strings are
    refused, where int() would read 7.9 as 7 and true as 1."""
    if type(value) is not int or value < low or (
            high is not None and value >= high):
        bound = f"[{low}, {high})" if high is not None else f">= {low}"
        raise ValueError(f"{name} must be an integer {bound}, not {value!r}")
    return value


def json_rational(value, name: str) -> Fraction:
    """A rational from a Fraction, a finite JSON number or a string such
    as "-3/2"; a float is the decimal it is written as (0.01 is 1/100)."""
    if type(value) in (int, float, str, Fraction):
        try:
            return Fraction(repr(value) if type(value) is float else value)
        except (ValueError, ArithmeticError):  # "x", "1/0", nan, inf
            pass
    raise ValueError(f"{name} must be a number or a string such as "
                     f"\"-3/2\", not {value!r}")


def json_object(value, name: str) -> dict:
    """A JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    return value


def json_array(value, name: str, length: int | None = None,
               least: int = 1) -> list:
    """A JSON array of exactly ``length`` items if given, else of at
    least ``least``."""
    if not isinstance(value, (list, tuple)) or (
            len(value) < least if length is None else len(value) != length):
        size = (f" of {length} item(s)" if length is not None
                else f" of at least {least} item(s)" if least else "")
        raise ValueError(f"{name} must be an array{size}, not {value!r}")
    return list(value)
