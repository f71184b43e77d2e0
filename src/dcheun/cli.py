"""Batch command-line front end.

Subcommands: ``eval`` (series solutions at sample points with equation
residuals), ``spectrum`` (algebraic or continued-fraction energies of
the hyperbolic potentials), ``transform`` (parameter transformation
rules), and ``verify`` (seeded invariant suites with machine-readable
reports).  Output is JSON (default) or CSV, deterministic for a fixed
configuration including the seed.

Exit codes: 0 success, 1 internal or arithmetic (e.g. overflow) error,
2 usage or domain error, 3 method precondition not satisfied.  Every
nonzero exit after argument parsing writes one JSON error line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import warnings

SCHEMA_VERSION = "1"

from .core import DcheParams, apply_rule, residual_parts
from .errors import (
    ConditionError,
    DcheunError,
    DomainError,
    MatchFailure,
    NoRoots,
    NotQes,
)
from .tolerances import (
    ADJOINT_BOUND,
    MAGNITUDE_FLOOR,
    MISPRINT_BOUND,
    R1_FIXED_POINT_TOL,
    VERIFY_TOL,
)

_USAGE_ERRORS = (DomainError, ValueError)
_PRECONDITION_ERRORS = (NotQes, NoRoots, ConditionError, MatchFailure)


def parse_complex(text: str) -> complex:
    """Parse the literal format a+bi / a-bi / a / bi / i (no spaces)."""
    s = text.strip()
    if not s or " " in s:
        raise ValueError(f"malformed complex literal {text!r}")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"malformed complex literal {text!r}") from None


def format_complex(z: complex) -> str:
    """Inverse of parse_complex: shortest round-tripping a+bi form."""
    z = complex(z)
    re, im = repr(z.real), repr(z.imag)
    if z.imag == 0:
        return re
    sign = "+" if z.imag >= 0 else "-"
    if z.real == 0:
        return f"{im}i" if z.imag >= 0 else f"-{repr(-z.imag)}i"
    return f"{re}{sign}{repr(abs(z.imag))}i"


def _parse_params(text: str) -> DcheParams:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("--params needs B1,B2,B3,omega,eta (5 comma-separated values)")
    b1, b2, b3, omega, eta = (parse_complex(p) for p in parts)
    return DcheParams(b1, b2, b3, omega, eta)


def _emit(payload: dict, fmt: str, columns=None) -> None:
    payload["schema_version"] = SCHEMA_VERSION
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    rows = payload.get("records", [])
    cols = columns or (sorted(rows[0]) if rows else [])
    print(",".join(cols))
    for r in rows:
        print(",".join(str(r.get(c, "")) for c in cols))


def cmd_eval(args) -> int:
    from .solutions import build_pair_power, r3_family

    params = _parse_params(args.params)
    if args.pair not in range(1, 9):
        raise DomainError("--pair must be 1..8")
    if args.terms < 1:
        raise DomainError(f"--terms must be >= 1, got {args.terms}")
    builder = build_pair_power if args.pair <= 4 else r3_family
    pid = args.pair if args.pair <= 4 else args.pair - 4
    u_inf, u_zero = builder(pid, params, args.terms)
    member = u_inf if args.variant == "inf" else u_zero
    records = []
    for ztext in args.z:
        z = parse_complex(ztext)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value, d1, d2 = triple = member(z)
            res, scale = residual_parts(params, lambda _: triple, z)
        records.append(
            {
                "z": format_complex(z),
                "value": format_complex(value),
                "d1": format_complex(d1),
                "d2": format_complex(d2),
                "residual": abs(res) / max(scale, MAGNITUDE_FLOOR),
                "warnings": ";".join(sorted({w.category.__name__ for w in caught})),
            }
        )
    _emit(
        {"command": "eval", "pair": args.pair, "variant": args.variant, "records": records},
        args.format,
        columns=["z", "value", "d1", "d2", "residual", "warnings"],
    )
    return 0


def cmd_spectrum(args) -> int:
    from .qes import QesProblem, infinite_spectrum, qes_spectrum

    kind = "DOUBLE_MORSE" if args.potential == "double-morse" else "SECOND_TYPE"
    problem = QesProblem(kind=kind, B=args.B, C=args.C, s=args.s)
    if args.method == "tridiag":
        result = qes_spectrum(problem)
    else:
        if args.bracket is None:
            raise DomainError("--bracket lo hi is required for method=cf")
        result = infinite_spectrum(problem, tuple(args.bracket))
    records = [
        {"index": i, "energy": format_complex(e)}
        for i, e in enumerate(sorted(result.energies, key=lambda x: complex(x).real))
    ]
    payload = {
        "command": "spectrum",
        "method": result.method,
        "records": records,
        "certificates": {
            k: ([format_complex(x) for x in v] if isinstance(v, list) else v)
            for k, v in result.certificates.items()
        },
    }
    _emit(payload, args.format, columns=["index", "energy"])
    return 0


def cmd_transform(args) -> int:
    if args.rule not in ("r1", "r2", "r3"):
        raise DomainError(f"unknown rule {args.rule!r}; expected r1, r2 or r3")
    params = _parse_params(args.params)
    new, gauge = apply_rule(args.rule, params)
    payload = {
        "command": "transform",
        "rule": args.rule,
        "records": [
            {
                "B1": format_complex(new.b1),
                "B2": format_complex(new.b2),
                "B3": format_complex(new.b3),
                "omega": format_complex(new.omega),
                "eta": format_complex(new.eta),
            }
        ],
        "gauge": {
            "exp_z": format_complex(gauge.exp_z),
            "exp_inv": format_complex(gauge.exp_inv),
            "power": format_complex(gauge.power),
            "varmap": gauge.varmap.kind,
            "varmap_const": format_complex(gauge.varmap.const),
        },
    }
    _emit(payload, args.format, columns=["B1", "B2", "B3", "omega", "eta"])
    return 0


def _draw_params(rng: random.Random) -> DcheParams:
    return DcheParams(
        b1=rng.uniform(0.5, 2.0) + 1j * rng.uniform(-0.5, 0.5),
        b2=rng.uniform(-1.0, 3.0),
        b3=rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-1.0, 1.0),
        omega=rng.uniform(0.5, 1.5) + 1j * rng.uniform(-0.5, 0.5),
        eta=rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0),
    )


def _suite_rules(rng: random.Random, tol: float, checks: list) -> None:
    from .solutions import build_pair_power
    from .recurrence import char_root
    from .solutions import power_coeffs

    def dyadic(lo, hi):
        # dyadic draws keep the affine parameter maps exactly invertible
        return rng.randrange(int(lo * 8), int(hi * 8)) / 8

    for rule in ("r2", "r3"):
        ok = True
        for _ in range(5):
            p = DcheParams(
                b1=dyadic(0.5, 2) + 1j * dyadic(-0.5, 0.5),
                b2=dyadic(-1, 3),
                b3=dyadic(-2, 2) + 1j * dyadic(-1, 1),
                omega=dyadic(0.5, 1.5) + 1j * dyadic(-0.5, 0.5),
                eta=dyadic(-1, 1) + 1j * dyadic(-1, 1),
            )
            q, _ = apply_rule(rule, apply_rule(rule, p)[0])
            ok &= all(
                abs(getattr(p, f) - getattr(q, f)) == 0
                for f in ("b1", "b2", "b3", "omega", "eta")
            )
        checks.append({"check": f"{rule}_involution", "passed": bool(ok)})

    p0 = DcheParams(2, 2, 5, 1, 0)
    p1, _ = apply_rule("r1", p0)
    fixed = all(
        abs(getattr(p0, f) - getattr(p1, f)) < R1_FIXED_POINT_TOL
        for f in ("b1", "b2", "b3", "omega", "eta")
    )
    checks.append({"check": "r1_fixed_point_2_2_5_1_0", "passed": bool(fixed)})

    # covariance: a solution of the transformed equation, carried back by
    # the gauge, must solve the original equation; a draw whose root
    # cannot be found fails the check, as in the pairs suite
    worst, raised = 0.0, False
    for _ in range(3):
        p = _draw_params(rng)
        p2, gauge = apply_rule("r2", p)

        def fac(b3):
            return power_coeffs(1, p2.with_b3(b3))

        try:
            root = char_root(fac, p2.b3)
        except DcheunError:
            raised = True
            continue
        p2t = p2.with_b3(root.x)
        u_inf, _ = build_pair_power(1, p2t)
        back = gauge.transport(u_inf)
        pt = p.with_b3(root.x - 2 + p.b2)  # invert the rule's B3 shift
        for z in (0.9, 1.4 + 0.3j):
            res, scale = residual_parts(pt, back, z)
            worst = max(worst, abs(res) / max(scale, MAGNITUDE_FLOOR))
    if raised:
        checks.append({"check": "r2_covariance_residual", "passed": False})
    else:
        checks.append(
            {"check": "r2_covariance_residual", "passed": bool(worst < tol), "value": worst}
        )


def _suite_kernels(rng: random.Random, checks: list, fault: float) -> None:
    from .kernels import KernelSpec, verify_adjoint

    for kind, eta_lo in (("K1", 0.6), ("K2", 1.6)):
        worst = 0.0
        for _ in range(3):
            p = DcheParams(
                b1=rng.uniform(0.5, 1.5),
                b2=rng.uniform(0.2, 0.8),
                b3=rng.uniform(-1.0, 1.0),
                omega=1j * rng.uniform(0.3, 0.8),
                eta=1j * rng.uniform(eta_lo + 0.6, eta_lo + 1.4),
            )
            worst = max(worst, verify_adjoint(KernelSpec(kind, p), exponent_shift=fault))
        checks.append(
            {"check": f"{kind}_adjoint_identity", "passed": bool(worst < ADJOINT_BOUND),
             "value": worst}
        )


def _suite_integrals(rng: random.Random, tol: float, checks: list) -> None:
    from .kernels import appendix_closed_form, appendix_integral, whittaker_index_check

    worst = {"A1": 0.0, "A2": 0.0, "A3": 0.0}
    for _ in range(5):
        kw1 = dict(
            alpha=rng.uniform(0.3, 1.5) + 1j * rng.uniform(-0.3, 0.3),
            beta=rng.uniform(0.2, 2.0),
            y=rng.uniform(0.5, 2.5),
        )
        worst["A1"] = max(
            worst["A1"],
            abs(appendix_integral("A1", **kw1) - appendix_closed_form("A1", **kw1))
            / abs(appendix_closed_form("A1", **kw1)),
        )
        kw = dict(
            kappa=rng.uniform(-0.5, 0.5),
            lam=rng.uniform(-0.3, 0.3),
            mu=rng.uniform(0.3, 1.2),
            a=rng.uniform(0.8, 2.0),
        )
        for which in ("A2", "A3"):
            lhs = appendix_integral(which, **kw)
            rhs = appendix_closed_form(which, **kw)
            worst[which] = max(worst[which], abs(lhs - rhs) / abs(rhs))
    for which in ("A1", "A2", "A3"):
        checks.append(
            {"check": f"{which}_closed_form", "passed": bool(worst[which] < tol),
             "value": worst[which]}
        )
    good = whittaker_index_check(0.3, 0.2, 0.8, 1.5, corrected=True)
    bad = whittaker_index_check(0.3, 0.2, 0.8, 1.5, corrected=False)
    checks.append(
        {"check": "whittaker_corrected_index", "passed": bool(good < tol and bad > MISPRINT_BOUND)}
    )


def _suite_pairs(rng: random.Random, tol: float, checks: list) -> None:
    from .recurrence import char_root
    from .solutions import build_pair_power, power_coeffs

    for pair_id in (1, 2, 3, 4):
        worst = 0.0
        p = _draw_params(rng)

        def fac(b3):
            return power_coeffs(pair_id, p.with_b3(b3))

        try:
            root = char_root(fac, p.b3)
        except DcheunError:
            checks.append({"check": f"pair{pair_id}_residual", "passed": False})
            continue
        pt = p.with_b3(root.x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_inf, u_zero = build_pair_power(pair_id, pt)
            sign = 1 if pair_id in (1, 3) else -1
            zs = [sign * (1.0 + rng.random()) for _ in range(3)]
            for member in (u_inf, u_zero):
                for z in zs:
                    res, scale = residual_parts(pt, member, z)
                    worst = max(worst, abs(res) / max(scale, MAGNITUDE_FLOOR))
        checks.append(
            {"check": f"pair{pair_id}_residual", "passed": bool(worst < tol), "value": worst}
        )


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    checks: list = []
    if args.suite == "rules":
        _suite_rules(rng, args.tol, checks)
    elif args.suite == "kernels":
        _suite_kernels(rng, checks, args.inject_kernel_fault)
    elif args.suite == "integrals":
        _suite_integrals(rng, args.tol, checks)
    elif args.suite == "pairs":
        _suite_pairs(rng, args.tol, checks)
    else:
        raise DomainError(f"unknown suite {args.suite!r}")
    ok = all(c["passed"] for c in checks)
    _emit(
        {"command": "verify", "suite": args.suite, "seed": args.seed,
         "passed": ok, "records": checks},
        args.format,
        columns=["check", "passed", "value"],
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dcheun",
        description="Series solutions, spectra and verification suites for the "
        "double-confluent Heun equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a pair member at sample points")
    pe.add_argument("--params", required=True, help="B1,B2,B3,omega,eta (a+bi literals)")
    pe.add_argument("--pair", type=int, required=True)
    pe.add_argument("--variant", choices=("inf", "zero"), default="inf")
    pe.add_argument("--z", nargs="+", required=True)
    pe.add_argument("--terms", type=int, default=60)
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("spectrum", help="energy spectrum of a hyperbolic potential")
    ps.add_argument("--potential", choices=("double-morse", "second-type"), required=True)
    ps.add_argument("--B", type=float, required=True)
    ps.add_argument("--C", type=float, default=0.0)
    ps.add_argument("--s", type=float, required=True)
    ps.add_argument("--method", choices=("tridiag", "cf"), default="tridiag")
    ps.add_argument("--bracket", type=float, nargs=2)
    ps.add_argument("--format", choices=("json", "csv"), default="json")
    ps.set_defaults(func=cmd_spectrum)

    pt = sub.add_parser("transform", help="apply a parameter transformation rule")
    pt.add_argument("--rule", required=True)
    pt.add_argument("--params", required=True)
    pt.add_argument("--format", choices=("json", "csv"), default="json")
    pt.set_defaults(func=cmd_transform)

    pv = sub.add_parser("verify", help="run a seeded invariant suite")
    pv.add_argument("--suite", required=True,
                    choices=("rules", "kernels", "integrals", "pairs"))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument(
        "--tol", type=float, default=VERIFY_TOL,
        help="pass threshold of the rules, integrals and pairs suites, "
        f"0 < tol < inf (the kernels suite has a fixed {ADJOINT_BOUND:g} adjoint bound)",
    )
    pv.add_argument(
        "--inject-kernel-fault", type=float, default=0.0,
        help="perturb the kernel power exponent (negative control)",
    )
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        tol = getattr(args, "tol", 1.0)
        if tol <= 0:
            raise DomainError("tolerance must be positive")
        if not tol < math.inf:
            raise DomainError(f"tolerance must be finite, got {tol!r}")
        return args.func(args)
    except (*_USAGE_ERRORS, DcheunError, ArithmeticError) as e:
        print(json.dumps({"error": str(e), "schema_version": SCHEMA_VERSION}), file=sys.stderr)
        if isinstance(e, _PRECONDITION_ERRORS):
            return 3
        return 2 if isinstance(e, _USAGE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
