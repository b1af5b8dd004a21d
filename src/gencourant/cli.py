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
    """The check of ``fields``: expressions, or a float array of residuals
    whose last axis runs over ``points`` (see ``ex.max_abs_on_points``)."""
    worst, at = ex.max_abs_on_points(fields, points)
    return Check(name, identity, worst, tol, at)


def _flat(arrays):
    out = []
    for a in arrays:
        if isinstance(a, np.ndarray):
            out.extend(a.reshape(-1))
        elif isinstance(a, tn.TensorField):
            out.extend(a.comps.reshape(-1))
        else:
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def checks_axioms(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    bg = scene.background
    chart = scene.chart
    pts = chart.sample_points()
    tol = scene.tol("sym")
    H = derived.h_prime
    gen = chart.rng(1009)
    triples = [tuple(gtb.random_section(chart, gen) for _ in range(3)) for _ in range(3)]
    out = []

    jac = _flat([gtb.jacobiator(a, b, c, H).components() for a, b, c in triples])
    out.append(_check("axioms.leibniz-identity",
                      "in-bracket derivation rule (Jacobiator residual)", jac, pts, tol))

    inv = []
    for a, b, c in triples:
        lhs = tn.contract("m,m->", a.vec.comps, ex.gradient(gtb.pairing(b, c), chart))
        rhs = gtb.pairing(gtb.dorfman(a, b, H), c) + gtb.pairing(b, gtb.dorfman(a, c, H))
        inv.append(lhs - rhs)
    out.append(_check("axioms.pairing-invariance",
                      "anchored derivative of the pairing splits over the bracket", inv, pts, tol))

    sym = _flat([
        (gtb.dorfman(a, b, H) + gtb.dorfman(b, a, H)
         - gtb.d_map(chart, gtb.pairing(a, b))).components()
        for a, b, _ in triples
    ])
    out.append(_check("axioms.symmetric-part",
                      "symmetrized bracket is the differential of the pairing", sym, pts, tol))

    f = ex.random_polynomial(chart, gen)
    g2 = ex.random_polynomial(chart, gen)
    props = _flat([gtb.dorfman(gtb.d_map(chart, f), triples[0][0], H).components()])
    props.append(gtb.pairing(gtb.d_map(chart, f), gtb.d_map(chart, g2)))
    out.append(_check("axioms.differential-image",
                      "differential image is central and isotropic", props, pts, tol))

    a, b, _ = triples[1]
    rhof = tn.contract("m,m->", b.vec.comps, ex.gradient(f, chart))
    left = (
        gtb.dorfman(a.scale(f), b, H)
        - gtb.dorfman(a, b, H).scale(f)
        + a.scale(rhof)
        - gtb.d_map(chart, f).scale(gtb.pairing(a, b))
    )
    out.append(_check("axioms.left-leibniz",
                      "left multiplication rule of the bracket", left.components(), pts, tol))

    morph = _flat([
        (gtb.dorfman(a, b, H).vec - tn.lie_bracket(a.vec, b.vec)).comps
        for a, b, _ in triples
    ])
    out.append(_check("axioms.anchor-morphism",
                      "anchor sends the bracket to the vector-field commutator", morph, pts, tol))

    gm = derived.metric
    tau = gm.tau_matrix()
    tau2 = tn.contract("ik,kj->ij", tau, tau) - np.eye(2 * chart.dim)
    out.append(_check("axioms.involution", "squared metric involution is the identity",
                      tau2.reshape(-1), pts, tol))

    proj = []
    genv = chart.rng(1013)
    X = tn.from_function(chart, ("up",), lambda i: ex.random_polynomial(chart, genv))
    plus, minus = gm.psi_plus(X), gm.psi_minus(X)
    proj.extend((gm.project(plus, +1) - plus).components())
    proj.extend(gm.project(plus, -1).components())
    proj.extend((gm.project(minus, -1) - minus).components())
    proj.extend(gm.project(minus, +1).components())
    out.append(_check("axioms.eigenbundle-graphs",
                      "graph embeddings land in the projector eigenbundles", proj, pts, tol))

    hdiff = [a - b for a, b in
             zip(gm.h_form().comps.reshape(-1), gm.g_inv.comps.reshape(-1))]
    out.append(_check("axioms.induced-form",
                      "induced cotangent form equals the inverse metric", hdiff, pts, tol))

    shear, at = gtb.twisted_bracket_check(bg.B, bg.H)
    out.append(Check("axioms.shear-intertwines-brackets",
                     "the 2-form shear maps the shifted twist bracket to the original",
                     shear, tol, at))

    # finite-difference consistency of the expression engine on phi
    fd = []
    h = 1e-4
    for m in range(chart.dim):
        d = ex.differentiate(bg.phi, chart.coord(m))
        for p in pts[:4]:
            up = list(p)
            dn = list(p)
            up[m] += h
            dn[m] -= h
            cd = (ex.evaluate(bg.phi, up) - ex.evaluate(bg.phi, dn)) / (2 * h)
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
    want[:n, :n, :n] = tn.values_at(derived.h_prime.comps, pts)
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
    closed = rscal - 0.5 * rm.form_inner(Hp, Hp, derived.ginv)
    out.append(_check("curvature.metric-scalar-closed-form",
                      "metric trace equals chart scalar minus half the twist norm",
                      gconn.scalar_G(minimal) - tn.values_at(closed, pts), pts, tol))
    out.append(_check("curvature.characteristic-field-minimal",
                      "characteristic vector field of the distinguished connection vanishes",
                      gconn.char_vf(minimal), pts, scene.tol("strict")))

    # one random parameter pair: stays in the family, scalars follow the
    # closed forms in the partial traces
    gen = chart.rng(1021)
    J = tn.antisymmetrize(
        tn.from_function(chart, ("up",) * 3, lambda *i: ex.random_polynomial(chart, gen, 2, 0.2)),
        (1, 2),
    )
    W = tn.antisymmetrize(
        tn.from_function(chart, ("down",) * 3, lambda *i: ex.random_polynomial(chart, gen, 2, 0.2)),
        (1, 2),
    )
    params = gconn.validate_params(J, W)
    conn = gconn.with_params(minimal, params)
    out.append(_check("curvature.family-torsion-free",
                      "parameter deformations stay torsion-free",
                      gconn.gualtieri_torsion(conn), pts, tol))
    K, _ = gconn.param_tensor_frame(params, minimal.metric)
    out.append(_check("curvature.trace-identity",
                      "quadratic trace identity of the deformation tensor",
                      gconn.trace_identity_residual(minimal, K), pts, scene.tol("strict")))
    return out, {}


def checks_beta(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    pts = scene.chart.sample_points()
    tol = scene.tol("sym")
    betas = derived.betas
    out = []
    other = streff.beta_b_conformal_form(derived)
    out.append(_check("beta.antisymmetric-two-forms-agree",
                      "divergence and conformally weighted forms of the antisymmetric residual",
                      [a - b for a, b in zip(betas.beta_B.comps.reshape(-1), other.comps.reshape(-1))],
                      pts, tol))
    index = streff.beta_g_index_form(derived)
    out.append(_check("beta.symmetric-index-free-agree",
                      "index and index-free assemblies of the symmetric residual",
                      [a - b for a, b in zip(betas.beta_g.comps.reshape(-1), index.comps.reshape(-1))],
                      pts, tol))
    Hp = derived.h_prime
    lap, _, norm2 = rm.laplace_divergence(scene.background.phi, derived.gamma)
    direct = -0.5 * lap + norm2 - 0.25 * rm.form_inner(Hp, Hp, derived.ginv)
    out.append(_check("beta.scalar-combination",
                      "dependent scalar equals its direct assembly",
                      [betas.beta_phi_prime - direct], pts, 1e-12))
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
    res_sch = gtb.schouten_check(pkg.theta, pkg.cotangent.twist)
    out.append(_check("symplectic.twisted-jacobi",
                      "inverse bivector satisfies the twisted Jacobi identity",
                      _flat([res_sch]), pts, tol))
    alg = pkg.cotangent.algebroid
    gamma = tn.values_at(pkg.gamma, pts)
    torsion = gtb.frame_torsion(gamma, tn.values_at(alg.structure, pts))
    out.append(_check("symplectic.algebroid-torsion-free",
                      "coframe connection is torsion-free", torsion, pts, tol))
    out.append(_check("symplectic.algebroid-compatibility",
                      "coframe connection preserves the fiber metric",
                      alg.covariant_derivative_at(gamma, pkg.g_A, pts), pts, tol))
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
SYMPLECTIC_SUITES = ("symplectic", "equivalence")


def run_command(cmd: str, scene: Scene) -> Report:
    if cmd not in COMMANDS:
        raise CommandError(f"unknown command '{cmd}' (choose from {', '.join(COMMANDS)})")
    start = time.perf_counter()
    names = list(SUITES) if cmd == "all" else [cmd]
    # The first suite that reads the symplectic package decides once whether
    # B is invertible; the symplectic suites come last, so `all` runs every
    # other suite first and skips the rest when it is not.
    gate = next((name for name in names if name in SYMPLECTIC_SUITES), None)
    checks = []
    summary = {}
    # Every suite reads the one context of the background, so each derived
    # quantity is built once.
    derived = streff.Derived(scene.background)
    for name in names:
        if name == gate:
            try:
                _require_symplectic(derived)
            except CommandError as err:
                if cmd != "all":
                    raise
                summary["symplectic_skipped"] = str(err)
                break
        # One evaluation scope per suite: the checks of a suite (and its
        # summary) read shared nodes, each evaluated once at each point; the
        # values are released when the suite ends.
        with ex.evaluation_scope():
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
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
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
