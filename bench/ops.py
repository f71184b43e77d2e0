"""Op executors and oracle checks for the in-process workloads.

Each workload class imports exactly the dcheun modules it needs and
reaches every library function through its module attribute at call
time, so the tracer's rebinding is seen.  ``run`` is the timed op and
calls only the library; ``check`` runs afterwards, outside the timing,
and returns (passed, digits, extra) where digits is -log10 of the op's
worst relative error, or None when the op returned nothing to check.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

from oracles import LEVEL_TOL, digits

SERIES_TOL = 1e-8          # relative equation residual per point
SCHRODINGER_TOL = 1e-7     # relative Schrodinger residual on the grid
INTEGRAL_TOL = 1e-8        # closed form vs quadrature
TRANSFORM_TOL = 1e-6       # ratio constancy of the transform
ADJOINT_TOL = 1e-5         # adjoint-identity defect

U_GRID = np.linspace(-6.0, 6.0, 61)


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def _params(core, raw):
    return core.DcheParams(*(_cplx(x) for x in raw))


def _rel_residual(p, z, v, d1, d2) -> float:
    """Equation residual of the triple (value, d1, d2) at z, by the benchmark itself."""
    t2 = z * z * d2
    t1 = (p.b1 + p.b2 * z) * d1
    t0 = (p.b3 - 2 * p.eta * p.omega * z + p.omega**2 * z * z) * v
    return abs(t2 + t1 + t0) / max(abs(t2), abs(t1), abs(t0), 1e-300)


class SeriesEval:
    """Tune the characteristic root, build one pair, evaluate both members."""

    def __init__(self):
        self.core = importlib.import_module("dcheun.core")
        self.rec = importlib.import_module("dcheun.recurrence")
        self.sol = importlib.import_module("dcheun.solutions")

    def run(self, inp):
        core, rec, sol = self.core, self.rec, self.sol
        p = _params(core, inp["params"])
        kind, pid = inp["kind"], inp["pair"]
        if kind == "coulomb_nu":
            guess = np.roots([1.0, 1.0, (p.b2 / 2) * (1 - p.b2 / 2) + p.b3])[0]
            root = rec.char_root(lambda nu: sol.coulomb_nu_coeffs(pid, p, nu), guess + 0.1j)
            pair = sol.build_pair_coulomb_nu(pid, p, root.x, window=40)
        elif kind == "r3":
            flip = core.DcheParams(p.b1, p.b2, p.b3, -p.omega, -p.eta)
            root = rec.char_root(lambda b3: sol.power_coeffs(pid, flip.with_b3(b3)), p.b3)
            p = p.with_b3(root.x)
            pair = sol.r3_family(pid, p)
        else:
            root = rec.char_root(lambda b3: sol.power_coeffs(pid, p.with_b3(b3)), p.b3)
            p = p.with_b3(root.x)
            build = sol.build_pair_power if kind == "power" else sol.build_pair_coulomb
            pair = build(pid, p)
        values = []
        for member, pts in zip(pair, (inp["points"][:10], inp["points"][10:])):
            sign = member.halfplane_sign or 1
            for raw in pts:
                z = _cplx(raw)
                if sign * (p.b1 / z).real < 0:
                    z = -z
                values.append((z, member(z)))
        return p, values

    def check(self, inp, out):
        p, values = out
        worst = max(_rel_residual(p, z, *triple) for z, triple in values)
        return worst < SERIES_TOL, digits(worst), {}


def check_levels(refs, found, residual=0.0):
    """Every reference level found, none spurious, eigenfunction residual small."""
    hit = sum(any(abs(e - r) <= LEVEL_TOL * max(1.0, abs(r)) for e in found) for r in refs)
    errs = [min(abs(e - r) / max(1.0, abs(r)) for r in refs) for e in found] if refs else []
    spurious = sum(err > LEVEL_TOL for err in errs) + (len(found) if not refs else 0)
    passed = hit == len(refs) and spurious == 0 and residual < SCHRODINGER_TOL
    dig = digits(max(errs)) if errs else None
    return passed, dig, {"levels_ref": len(refs), "levels_found": hit, "spurious": spurious}


class Spectrum:
    """One potential: its levels, then an eigenfunction and residual per level."""

    def __init__(self):
        self.qes = importlib.import_module("dcheun.qes")

    def run(self, inp):
        qes = self.qes
        problem = qes.QesProblem(inp["kind"], B=inp["B"], s=inp["s"], C=inp["C"])
        if inp["method"] == "tridiag":
            result = qes.qes_spectrum(problem)
        else:
            result = qes.infinite_spectrum(problem, tuple(inp["ref"]["bracket"]))
        levels = []
        for e in result.energies:
            efn = qes.eigenfunction(problem, complex(e).real)
            levels.append((complex(e), qes.schrodinger_residual(efn, U_GRID)))
        return levels

    def check(self, inp, out):
        if inp["ref"]["error"] > LEVEL_TOL:
            raise ValueError(f"reference levels only accurate to {inp['ref']['error']:.1e}")
        return check_levels(inp["ref"]["levels"], [e for e, _ in out],
                            max((res for _, res in out), default=0.0))

    def declined(self, inp):
        """Oracle data for an op that raised: every reference level was missed."""
        return {"levels_ref": len(inp["ref"]["levels"]), "levels_found": 0, "spurious": 0}


class Integrals:
    """Closed forms vs quadrature, transform ratios, boundary terms, adjoint identity."""

    def __init__(self):
        self.core = importlib.import_module("dcheun.core")
        self.ker = importlib.import_module("dcheun.kernels")
        self.sol = importlib.import_module("dcheun.solutions")
        self.rec = importlib.import_module("dcheun.recurrence")

    def run(self, inp):
        ker, kind, a = self.ker, inp["kind"], inp["args"]
        if kind == "A1":
            kw = {k: _cplx(v) for k, v in a.items()}
            return ker.appendix_integral("A1", **kw), ker.appendix_closed_form("A1", **kw)
        if kind in ("A2", "A3"):
            kw = dict(a, kappa=_cplx(a["kappa"]))
            return ker.appendix_integral(kind, **kw), ker.appendix_closed_form(kind, **kw)
        if kind == "whittaker":
            return ker.whittaker_index_check(a["kappa"], a["lam"], a["mu"], a["a"], corrected=True)
        p = _params(self.core, a["params"])
        if kind.startswith("adjoint"):
            return ker.verify_adjoint(ker.KernelSpec(kind[-2:], p))
        return self._transform(kind, a, p)

    def _transform(self, kind, a, p):
        ker, sol, rec = self.ker, self.sol, self.rec
        pid = a["pair"]
        ev = rec.tridiag_eigen(sol.power_coeffs(pid, p), a["n_fin"])
        p = p.with_b3(-complex(ev.values[0]))
        spec = ker.KernelSpec(kind[:2], p)
        if kind.endswith("_r3"):
            flip = self.core.DcheParams(p.b1, p.b2, p.b3, -p.omega, -p.eta)
            spec, pair = ker.r3_companion(ker.KernelSpec(kind[:2], flip)), sol.r3_family(pid, flip)
        else:
            pair = sol.build_pair_power(pid, p)
        rep = ker.verify_transform(pair, spec, a["zs"])
        br = ker.verify_boundary_terms(pair, spec, a["z_boundary"])
        return rep, br

    def check(self, inp, out):
        kind = inp["kind"]
        if kind in ("A1", "A2", "A3"):
            lhs, rhs = out
            err = abs(lhs - rhs) / abs(rhs)
            return err < INTEGRAL_TOL, digits(err), {}
        if kind == "whittaker":
            return out < INTEGRAL_TOL, digits(out), {}
        if kind.startswith("adjoint"):
            # the defect is the finite-difference floor of the check, not the
            # error of a returned value: it counts in no digits figure
            return out < ADJOINT_TOL, None, {}
        rep, br = out
        passed = (rep.passed and rep.max_rel_dev < TRANSFORM_TOL
                  and br.vanishes_at_1 and br.vanishes_at_inf)
        return passed, digits(rep.max_rel_dev), {}


CLASSES = {"series_eval": SeriesEval, "spectrum": Spectrum, "integrals": Integrals}


def load(workload: str):
    return CLASSES[workload]()


def u_cache():
    """U's memo table, or None once the library no longer has one."""
    sf = sys.modules.get("dcheun.specialfn")
    cached = getattr(sf, "_hyp_u_cached", None)
    return cached if hasattr(cached, "cache_clear") else None
