"""Command dispatch: evaluate identity suites on a scene and emit a JSON
report.

    gencourant <command> <scene.json> [--seed N] [--points N]
               [--tol-sym X] [--tol-fd X] [--out report.json]

Commands: axioms, torsion, curvature, beta, central, symplectic,
equivalence, all.  Exit codes: 0 every enabled check passed, 1 a check
failed, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import expr as ex
from . import gconn
from . import gtb
from . import riemann as rm
from . import streff
from . import tensors as tn
from .errors import CommandError, GencourantError, SingularB
from .scene import Check, Report, Scene, checked_tolerance, load_scene

COMMANDS = ("axioms", "torsion", "curvature", "beta", "central", "symplectic", "equivalence", "all")


def _check(name, identity, fields, points, tol) -> Check:
    """The check of ``fields``, a float array of residuals whose last axis
    runs over ``points`` (see ``ex.max_abs_on_points``)."""
    worst, at = ex.max_abs_on_points(fields, points)
    return Check(name, identity, worst, tol, at)


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _per_triple(residual: np.ndarray) -> np.ndarray:
    """[3, ..., p]: a residual over the three section triples side by side
    on the point axis, split back into one residual per triple."""
    return np.stack(np.split(residual, 3, axis=-1))


def checks_axioms(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    chart = scene.chart
    n = chart.dim
    pts = chart.sample_points()
    tol = scene.tol("sym")
    H = derived.h_prime
    gen = chart.rng(1009)
    sections = gtb.random_sections(chart, gen, 9)
    fg, dfg = tn.random_polynomial_jets(chart, gen, (2,))  # f and g2
    f, df, dg2 = fg[0], dfg[0], dfg[1]
    out = []
    br = lambda a, b: gtb.dorfman(a, b, H)  # values of the bracket of two section jets
    along = lambda X, w: np.einsum("mp,mp->p", X, w)  # X^m w_m

    # the triples (0, 1, 2), (3, 4, 5) and (6, 7, 8) side by side on the
    # point axis, with H' and df repeated for each: every formula below is
    # pointwise, so each bracket is one call for all three triples
    psi, phi, chi = (tuple(tn.on_points(*half) for half in zip(*sections[k::3])) for k in range(3))
    H3, df3 = tn.on_points(H, H, H), tn.on_points(df, df, df)
    br3 = lambda a, b: gtb.dorfman(a, b, H3)
    a, b, c = psi[0], phi[0], chi[0]

    jac = gtb.jacobiator(psi, phi, chi, H3)
    out.append(_check("axioms.leibniz-identity",
                      "in-bracket derivation rule (Jacobiator residual)", _per_triple(jac), pts, tol))

    inv = (along(a.value[:n], gtb.pairing(b, c).partial)
           - gtb.pairing(br3(a, b), c.value) - gtb.pairing(b.value, br3(a, c)))
    out.append(_check("axioms.pairing-invariance",
                      "anchored derivative of the pairing splits over the bracket", _per_triple(inv), pts, tol))

    sym = br3(a, b) + br3(b, a) - gtb.d_map(gtb.pairing(a, b).partial)
    out.append(_check("axioms.symmetric-part",
                      "symmetrized bracket is the differential of the pairing", _per_triple(sym), pts, tol))

    props = np.concatenate([br(gtb.d_map(df), sections[0][0]),
                            gtb.pairing(gtb.d_map(df.value), gtb.d_map(dg2.value))[None]])
    out.append(_check("axioms.differential-image",
                      "differential image is central and isotropic", props, pts, tol))

    u, v = sections[3][0], sections[4][0]
    uv = gtb.pairing(u.value, v.value)
    left = (br(tn.jet_contract(",a->a", f, u), v) - f.value * br(u, v)
            + along(v.value[:n], df.value) * u.value - uv * gtb.d_map(df.value))
    out.append(_check("axioms.left-leibniz",
                      "left multiplication rule of the bracket", left, pts, tol))

    # the anchor of the bracket acting on f, against X(Y f) - Y(X f) from
    # the 2-jet of f
    X, Y = a[:n], b[:n]
    Yf, Xf = (tn.jet_contract("m,m->", V, df3) for V in (Y, X))
    morph = along(br3(a, b)[:n], df3.value) - (along(X.value, Yf.partial) - along(Y.value, Xf.partial))
    out.append(_check("axioms.anchor-morphism",
                      "anchor sends the bracket to the vector-field commutator", _per_triple(morph), pts, tol))

    gm = derived.metric
    tau = gm.tau_matrix()
    tau2 = np.einsum("ikp,kjp->ijp", tau, tau) - np.eye(2 * chart.dim)[..., None]
    out.append(_check("axioms.involution", "squared metric involution is the identity",
                      tau2, pts, tol))

    proj = []
    genv = chart.rng(1013)
    X = tn.random_polynomial_jets(chart, genv, (n,))[0].value
    for sign in (+1, -1):
        psi = np.einsum("aip,ip->ap", gm.graph(sign), X)
        proj += [gm.project(psi, sign) - psi, gm.project(psi, -sign)]
    out.append(_check("axioms.eigenbundle-graphs",
                      "graph embeddings land in the projector eigenbundles", np.stack(proj), pts, tol))

    out.append(_check("axioms.induced-form",
                      "induced cotangent form equals the inverse metric",
                      gm.h_form() - gm.g_inv.value, pts, tol))

    shear, at = gtb.twisted_bracket_check(chart, derived.jets.B[0], derived.jets.H, H)
    out.append(Check("axioms.shear-intertwines-brackets",
                     "the 2-form shear maps the shifted twist bracket to the original",
                     shear, tol, at))

    # finite-difference consistency of the expression engine on phi
    phi = scene.background.phi
    fd = []
    h = 1e-4
    for m in range(chart.dim):
        d = ex.differentiate(phi, chart.coord(m))
        for p in pts[:4]:
            up = list(p)
            dn = list(p)
            up[m] += h
            dn[m] -= h
            cd = (ex.evaluate(phi, up) - ex.evaluate(phi, dn)) / (2 * h)
            fd.append((abs(cd - ex.evaluate(d, p)), p))
    worst, at = ex.worst_of(fd)
    out.append(Check("axioms.derivative-fd-consistency",
                     "symbolic derivatives agree with central differences",
                     worst, scene.tol("fd"), at))
    return out, {}


def checks_torsion(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    chart = scene.chart
    pts = chart.sample_points()
    minimal = derived.minimal
    out = [_check("torsion.minimal-vanishes", "distinguished connection is torsion-free",
                  gconn.gualtieri_torsion(minimal), pts, scene.tol("strict"))]
    T = gconn.gualtieri_torsion(derived.block_lc)
    n = chart.dim
    want = np.zeros_like(T)
    want[:n, :n, :n] = derived.h_prime.value
    out.append(_check("torsion.block-transport-pullback",
                      "block transport torsion is the anchor pullback of the twist",
                      T - want, pts, scene.tol("sym")))
    anti = np.stack([T + np.swapaxes(T, i, j) for i, j in ((0, 1), (1, 2))])
    out.append(_check("torsion.total-antisymmetry",
                      "torsion 3-form is totally antisymmetric", anti, pts, scene.tol("sym")))
    out.append(_check("torsion.pairing-compatibility",
                      "connection coefficients are skew in the pairing",
                      gconn.pairing_compat_residual(minimal), pts, scene.tol("strict")))
    out.append(_check("torsion.metric-compatibility",
                      "block metric is parallel", gconn.metric_compat_residual(minimal),
                      pts, scene.tol("sym")))
    return out, {}


def checks_curvature(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    chart = scene.chart
    pts = chart.sample_points()
    tol = scene.tol("sym")
    Hp = derived.h_prime
    out = []
    minimal = derived.minimal
    r = gconn.gen_riemann(minimal)  # [d, c, a, b, point]
    sym1 = r + np.einsum("dcbap->dcabp", r)
    sym2 = r + np.einsum("cdabp->dcabp", r)
    sym3 = r - np.einsum("bacdp->dcabp", r)
    sym4 = r - np.einsum("abdcp->dcabp", r)
    bianchi = r + np.einsum("dabcp->dcabp", r) + np.einsum("dbcap->dcabp", r)
    out.append(_check("curvature.skew-last-pair", "curvature tensor is skew in the bracket slots",
                      sym1, pts, tol))
    out.append(_check("curvature.skew-first-pair", "curvature tensor is skew in the value slots",
                      sym2, pts, tol))
    out.append(_check("curvature.pair-swap", "curvature tensor is symmetric under swapping the two pairs",
                      sym3, pts, tol))
    out.append(_check("curvature.interchange", "interchange symmetry of the curvature tensor",
                      sym4, pts, tol))
    out.append(_check("curvature.bianchi-torsion-free", "algebraic Bianchi identity, torsion-free case",
                      bianchi, pts, tol))
    out.append(_check("curvature.bianchi-torsionful",
                      "algebraic Bianchi identity with torsion terms",
                      gconn.bianchi_residual(derived.block_lc), pts, tol))
    out.append(_check("curvature.pairing-scalar-vanishes",
                      "pairing trace of the distinguished connection vanishes",
                      gconn.scalar_E(minimal), pts, scene.tol("strict")))
    _, rscal = derived.curvature
    closed = rscal - 0.5 * rm.form_inner(Hp.value, Hp.value, derived.ginv.value)
    out.append(_check("curvature.metric-scalar-closed-form",
                      "metric trace equals chart scalar minus half the twist norm",
                      gconn.scalar_G(minimal) - closed, pts, tol))
    out.append(_check("curvature.characteristic-field-minimal",
                      "characteristic vector field of the distinguished connection vanishes",
                      gconn.char_vf(minimal), pts, scene.tol("strict")))

    # one random parameter pair: stays in the family, scalars follow the
    # closed forms in the partial traces
    gen = chart.rng(1021)
    n = chart.dim
    JW = tn.random_polynomial_jets(chart, gen, (2, n, n, n), 2, 0.2)[0]
    J, W = (JW[k].map(lambda t: 0.5 * (t - t.swapaxes(1, 2))) for k in (0, 1))  # skew in (1, 2)
    params = gconn.validate_params(J, W)
    K = gconn.param_tensor_frame(params, minimal.metric)
    conn = gconn.with_params(minimal, params, K)
    out.append(_check("curvature.family-torsion-free",
                      "parameter deformations stay torsion-free",
                      gconn.gualtieri_torsion(conn), pts, tol))
    out.append(_check("curvature.trace-identity",
                      "quadratic trace identity of the deformation tensor",
                      gconn.trace_identity_residual(minimal, K.value), pts, scene.tol("strict")))
    return out, {}


def checks_beta(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    pts = scene.chart.sample_points()
    tol = scene.tol("sym")
    betas = derived.betas
    out = []
    out.append(_check("beta.antisymmetric-two-forms-agree",
                      "divergence and conformally weighted forms of the antisymmetric residual",
                      betas.beta_B - streff.beta_b_conformal_form(derived), pts, tol))
    out.append(_check("beta.symmetric-index-free-agree",
                      "index and index-free assemblies of the symmetric residual",
                      betas.beta_g - streff.beta_g_index_form(derived), pts, tol))
    Hp = derived.h_prime.value
    lap, _, norm2 = rm.laplace_divergence(derived.jets.phi[1], derived.gamma)
    direct = -0.5 * lap + norm2 - 0.25 * rm.form_inner(Hp, Hp, derived.ginv.value)
    out.append(_check("beta.scalar-combination",
                      "dependent scalar equals its direct assembly",
                      betas.beta_phi_prime - direct, pts, 1e-12))
    worst, _ = betas.max_abs(pts)
    return out, {"beta_max_abs": worst, "beta_on_shell": worst < streff.VANISH_TOL}


def checks_central(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    pts = scene.chart.sample_points()
    tol = scene.tol("sym")
    res = streff.central_residuals(derived)
    return [
        _check("central.scalar-identity",
               "metric Ricci trace of the dilaton connection equals the scalar residual",
               res.scalar_residual, pts, tol),
        _check("central.off-block-identity",
               "off-block Ricci equals symmetric minus antisymmetric residual",
               res.ricci_residual, pts, tol),
    ], {}


def _require_dilaton(derived: streff.Derived):
    """A CommandError on a 1-D chart, where ``gconn.dilaton_params`` cannot
    build the dilaton connection; checked before it is built."""
    if derived.bg.chart.dim < 2:
        raise CommandError("the dilaton trace condition needs a chart of dimension > 1")


def _require_symplectic(derived: streff.Derived):
    """The symplectic package, or a CommandError when B is not invertible."""
    if derived.bg.chart.dim % 2 == 1:
        raise CommandError("symplectic checks need an even-dimensional chart (B is singular)")
    try:
        return derived.symplectic
    except SingularB as err:
        raise CommandError(f"symplectic checks need an invertible B: {err}") from err


def checks_symplectic(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    chart = scene.chart
    pts = chart.sample_points()
    tol = scene.tol("sym")
    pkg = derived.symplectic
    out = []
    res_sch = gtb.schouten_check(pkg.theta[0], pkg.twist.value, pts)
    out.append(_check("symplectic.twisted-jacobi",
                      "inverse bivector satisfies the twisted Jacobi identity",
                      res_sch, pts, tol))
    alg = pkg.algebroid
    gamma = pkg.gamma.value
    torsion = gtb.frame_torsion(gamma, alg.structure.value)
    out.append(_check("symplectic.algebroid-torsion-free",
                      "coframe connection is torsion-free", torsion, pts, tol))
    out.append(_check("symplectic.algebroid-compatibility",
                      "coframe connection preserves the fiber metric",
                      gtb.covariant_derivative(gamma, alg.anchor.value, *pkg.g_A), pts, tol))
    res1, _, _ = derived.dual_residuals
    out.append(_check("symplectic.scalar-two-paths",
                      "coframe scalar residual equals the sheared metric Ricci trace",
                      res1 - gconn.scalar_G(derived.theta_connection), pts, tol))
    worst, _ = ex.max_abs_on_points(streff.dual_fields(derived), pts)
    return out, {"symplectic_max_abs": worst, "symplectic_on_shell": worst < streff.VANISH_TOL}


def checks_equivalence(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    pts = scene.chart.sample_points()
    tol = scene.tol("sym")
    rep = streff.equivalence_report(derived)
    # the larger family residual, and its point; a NaN one comes first
    worst, at = ex.worst_of([(rep.beta_max, rep.beta_point),
                             (rep.symplectic_max, rep.symplectic_point)])
    agree = 0.0 if rep.beta_on_shell == rep.symplectic_on_shell else worst
    return [
        _check("equivalence.ricci-transport",
               "Ricci tensors match through the bivector shear", derived.transport, pts, tol),
        Check("equivalence.simultaneous-vanishing",
              "the two residual families vanish together", agree, streff.VANISH_TOL, at),
    ], dict(beta_max_abs=rep.beta_max, symplectic_max_abs=rep.symplectic_max,
            beta_on_shell=rep.beta_on_shell, symplectic_on_shell=rep.symplectic_on_shell,
            verdict_text=rep.verdict)


# Each suite returns its checks and its summary entries; `all` runs them in
# this order and merges the summaries.
SUITES = {
    "axioms": checks_axioms,
    "torsion": checks_torsion,
    "curvature": checks_curvature,
    "beta": checks_beta,
    "central": checks_central,
    "symplectic": checks_symplectic,
    "equivalence": checks_equivalence,
}
# The suites that read a quantity some backgrounds lack: the check that
# raises CommandError when it cannot be built, which fails a single command,
# and the summary key under which `all` records why it skips those suites.
GATES = {
    "central": (_require_dilaton, "central_skipped"),
    "symplectic": (_require_symplectic, "symplectic_skipped"),
    "equivalence": (_require_symplectic, "symplectic_skipped"),
}


def run_command(cmd: str, scene: Scene) -> Report:
    if cmd not in COMMANDS:
        raise CommandError(f"unknown command '{cmd}' (choose from {', '.join(COMMANDS)})")
    start = time.perf_counter()
    names = list(SUITES) if cmd == "all" else [cmd]
    checks = []
    summary = {}
    # Every suite reads the one context of the background, so each derived
    # quantity is built once.
    derived = streff.Derived(scene.background)
    # The numeric stages check their outputs finite where they are made
    # (tensors.finite); an overflow after them shows as a non-finite
    # residual, which fails its check, not as a numpy warning.
    with np.errstate(all="ignore"):
        for name in names:
            if name in GATES:
                require, key = GATES[name]
                if key in summary:
                    continue
                try:
                    require(derived)
                except CommandError as err:
                    if cmd != "all":
                        raise
                    summary[key] = str(err)
                    continue
            suite_checks, suite_summary = SUITES[name](scene, derived)
            checks.extend(suite_checks)
            summary.update(suite_summary)
    elapsed = time.perf_counter() - start
    return Report(
        command=cmd,
        scene=scene.name,
        seed=scene.chart.seed,
        num_points=scene.chart.num_points,
        checks=checks,
        summary=summary,
        timing_seconds=elapsed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencourant",
        description="Residual checks for generalized-geometry backgrounds on a chart.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scene", help="scene JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the chart seed")
    parser.add_argument("--points", type=int, default=None, help="override the sample count")
    parser.add_argument("--tol-sym", type=float, default=None, help="symbolic identity tolerance")
    parser.add_argument("--tol-fd", type=float, default=None, help="finite-difference tolerance")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out:  # checked before the run, which the report would otherwise wait for
        folder = os.path.dirname(os.path.abspath(args.out))
        problem = (f"{args.out} is a directory" if os.path.isdir(args.out)
                   else None if os.path.isdir(folder) and os.access(folder, os.W_OK)
                   else f"{folder} is not a writable directory")
        if problem:
            print(f"error: cannot write the report: {problem}", file=sys.stderr)
            return 2
    try:
        scene = load_scene(args.scene, seed=args.seed, points=args.points)
        for kind, value in (("sym", args.tol_sym), ("fd", args.tol_fd)):
            if value is not None:
                scene.tolerances[kind] = checked_tolerance(value, f"--tol-{kind}")
        report = run_command(args.command, scene)
    except GencourantError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - internal faults
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    text = report.to_json()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"error: cannot write the report: {err}", file=sys.stderr)
            return 2
    else:
        print(text)
    for check in sorted(report.checks, key=lambda c: c.name):
        mark = "ok  " if check.passed else "FAIL"
        print(f"{mark} {check.name}: {check.max_abs_residual:.3e} (tol {check.tolerance:.1e})",
              file=sys.stderr)
    print(f"verdict: {'pass' if report.passed else 'fail'}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
