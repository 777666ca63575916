"""Built-in demo configurations.

Two configurations ship with the package: a three-dimensional symbolic
setup used by the algebraic test batteries, and a two-dimensional setup
with a mildly negative product tree used by the numerical pipelines.
Each is defined once, as the rule config ``builtin_rule_config``
returns; its sector is generated from that config.  Numeric parameter
values are configuration choices, not claims."""

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
