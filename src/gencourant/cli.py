"""Command dispatch: evaluate identity suites on a scene and emit a JSON
report.

    gencourant <command> <scene.json> [--seed N] [--points N]
               [--tol-sym X] [--tol-fd X] [--out report.json]

Commands: axioms, torsion, curvature, beta, central, symplectic,
equivalence, all.  Exit codes: 0 every enabled check passed, 1 a check
failed, 2 input error, 3 internal error.

Each suite ``checks_<suite>`` returns plain rows and its summary entries;
``run_command`` is the one place that reduces a row's residual, resolves its
tolerance, builds its ``Check`` and decides whether a suite that cannot run
on the scene fails the command or is skipped.
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
    H = derived.h_prime
    gen = chart.rng(1009)
    sections = gtb.random_sections(chart, gen, 9)
    fg, dfg = tn.random_polynomial_jets(chart, gen, (2,))  # f and g2
    f, df, dg2 = fg[0], dfg[0], dfg[1]
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
    inv = (along(a.value[:n], gtb.pairing(b, c).partial)
           - gtb.pairing(br3(a, b), c.value) - gtb.pairing(b.value, br3(a, c)))
    sym = br3(a, b) + br3(b, a) - gtb.d_map(gtb.pairing(a, b).partial)
    props = np.concatenate([br(gtb.d_map(df), sections[0][0]),
                            gtb.pairing(gtb.d_map(df.value), gtb.d_map(dg2.value))[None]])
    u, v = sections[3][0], sections[4][0]
    uv = gtb.pairing(u.value, v.value)
    left = (br(tn.jet_contract(",a->a", f, u), v) - f.value * br(u, v)
            + along(v.value[:n], df.value) * u.value - uv * gtb.d_map(df.value))

    # the anchor of the bracket acting on f, against X(Y f) - Y(X f) from
    # the 2-jet of f
    X, Y = a[:n], b[:n]
    Yf, Xf = (tn.jet_contract("m,m->", V, df3) for V in (Y, X))
    morph = along(br3(a, b)[:n], df3.value) - (along(X.value, Yf.partial) - along(Y.value, Xf.partial))

    gm = derived.metric
    tau = gm.tau_matrix()
    tau2 = np.einsum("ikp,kjp->ijp", tau, tau) - np.eye(2 * chart.dim)[..., None]
    proj = []
    X = tn.random_polynomial_jets(chart, chart.rng(1013), (n,))[0].value
    for sign in (+1, -1):
        psi = np.einsum("aip,ip->ap", gm.graph(sign), X)
        proj += [gm.project(psi, sign) - psi, gm.project(psi, -sign)]

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
    return [
        ("axioms.leibniz-identity", "in-bracket derivation rule (Jacobiator residual)", "sym",
         _per_triple(jac)),
        ("axioms.pairing-invariance", "anchored derivative of the pairing splits over the bracket", "sym",
         _per_triple(inv)),
        ("axioms.symmetric-part", "symmetrized bracket is the differential of the pairing", "sym",
         _per_triple(sym)),
        ("axioms.differential-image", "differential image is central and isotropic", "sym", props),
        ("axioms.left-leibniz", "left multiplication rule of the bracket", "sym", left),
        ("axioms.anchor-morphism", "anchor sends the bracket to the vector-field commutator", "sym",
         _per_triple(morph)),
        ("axioms.involution", "squared metric involution is the identity", "sym", tau2),
        ("axioms.eigenbundle-graphs", "graph embeddings land in the projector eigenbundles", "sym",
         np.stack(proj)),
        ("axioms.induced-form", "induced cotangent form equals the inverse metric", "sym",
         gm.h_form() - gm.g_inv.value),
        ("axioms.shear-intertwines-brackets",
         "the 2-form shear maps the shifted twist bracket to the original", "sym",
         gtb.twisted_bracket_check(chart, derived.jets.B[0], derived.jets.H, H)),
        ("axioms.derivative-fd-consistency", "symbolic derivatives agree with central differences", "fd",
         ex.worst_of(fd)),
    ], {}


def checks_torsion(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    minimal = derived.minimal
    T = gconn.gualtieri_torsion(derived.block_lc)
    n = scene.chart.dim
    want = np.zeros_like(T)
    want[:n, :n, :n] = derived.h_prime.value
    return [
        ("torsion.minimal-vanishes", "distinguished connection is torsion-free", "strict",
         gconn.gualtieri_torsion(minimal)),
        ("torsion.block-transport-pullback", "block transport torsion is the anchor pullback of the twist",
         "sym", T - want),
        ("torsion.total-antisymmetry", "torsion 3-form is totally antisymmetric", "sym",
         np.stack([T + np.swapaxes(T, i, j) for i, j in ((0, 1), (1, 2))])),
        ("torsion.pairing-compatibility", "connection coefficients are skew in the pairing", "strict",
         gconn.pairing_compat_residual(minimal)),
        ("torsion.metric-compatibility", "block metric is parallel", "sym",
         gconn.metric_compat_residual(minimal)),
    ], {}


def checks_curvature(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    chart = scene.chart
    Hp = derived.h_prime
    minimal = derived.minimal
    r = gconn.gen_riemann(minimal)  # [d, c, a, b, point]
    _, rscal = derived.curvature
    closed = rscal - 0.5 * rm.form_inner(Hp.value, Hp.value, derived.ginv.value)

    # one random parameter pair: stays in the family, scalars follow the
    # closed forms in the partial traces
    n = chart.dim
    JW = tn.random_polynomial_jets(chart, chart.rng(1021), (2, n, n, n), 2, 0.2)[0]
    J, W = (JW[k].map(lambda t: 0.5 * (t - t.swapaxes(1, 2))) for k in (0, 1))  # skew in (1, 2)
    params = gconn.validate_params(J, W)
    K = gconn.param_tensor_frame(params, minimal.metric)
    conn = gconn.with_params(minimal, params, K)
    return [
        ("curvature.skew-last-pair", "curvature tensor is skew in the bracket slots", "sym",
         r + np.einsum("dcbap->dcabp", r)),
        ("curvature.skew-first-pair", "curvature tensor is skew in the value slots", "sym",
         r + np.einsum("cdabp->dcabp", r)),
        ("curvature.pair-swap", "curvature tensor is symmetric under swapping the two pairs", "sym",
         r - np.einsum("bacdp->dcabp", r)),
        ("curvature.interchange", "interchange symmetry of the curvature tensor", "sym",
         r - np.einsum("abdcp->dcabp", r)),
        ("curvature.bianchi-torsion-free", "algebraic Bianchi identity, torsion-free case", "sym",
         r + np.einsum("dabcp->dcabp", r) + np.einsum("dbcap->dcabp", r)),
        ("curvature.bianchi-torsionful", "algebraic Bianchi identity with torsion terms", "sym",
         gconn.bianchi_residual(derived.block_lc)),
        ("curvature.pairing-scalar-vanishes", "pairing trace of the distinguished connection vanishes",
         "strict", gconn.scalar_E(minimal)),
        ("curvature.metric-scalar-closed-form",
         "metric trace equals chart scalar minus half the twist norm", "sym",
         gconn.scalar_G(minimal) - closed),
        ("curvature.characteristic-field-minimal",
         "characteristic vector field of the distinguished connection vanishes", "strict",
         gconn.char_vf(minimal)),
        ("curvature.family-torsion-free", "parameter deformations stay torsion-free", "sym",
         gconn.gualtieri_torsion(conn)),
        ("curvature.trace-identity", "quadratic trace identity of the deformation tensor", "strict",
         gconn.trace_identity_residual(minimal, K.value)),
    ], {}


def checks_beta(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    betas = derived.betas
    Hp = derived.h_prime.value
    lap, _, norm2 = rm.laplace_divergence(derived.jets.phi[1], derived.gamma)
    direct = -0.5 * lap + norm2 - 0.25 * rm.form_inner(Hp, Hp, derived.ginv.value)
    worst, _ = derived.beta_max
    return [
        ("beta.antisymmetric-two-forms-agree",
         "divergence and conformally weighted forms of the antisymmetric residual", "sym",
         betas.beta_B - streff.beta_b_conformal_form(derived)),
        ("beta.symmetric-index-free-agree", "index and index-free assemblies of the symmetric residual",
         "sym", betas.beta_g - streff.beta_g_index_form(derived)),
        ("beta.scalar-combination", "dependent scalar equals its direct assembly", 1e-12,
         betas.beta_phi_prime - direct),
    ], {"beta_max_abs": worst, "beta_on_shell": worst < streff.VANISH_TOL}


def checks_central(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    if scene.chart.dim < 2:
        raise CommandError("the dilaton trace condition needs a chart of dimension > 1")
    scalar, ricci = streff.central_residuals(derived)
    return [
        ("central.scalar-identity", "metric Ricci trace of the dilaton connection equals the scalar residual",
         "sym", scalar),
        ("central.off-block-identity", "off-block Ricci equals symmetric minus antisymmetric residual",
         "sym", ricci),
    ], {}


def _symplectic(derived: streff.Derived) -> streff.SymplecticPackage:
    """The symplectic package, or a CommandError when B is not invertible."""
    if derived.bg.chart.dim % 2 == 1:
        raise CommandError("symplectic checks need an even-dimensional chart (B is singular)")
    try:
        return derived.symplectic
    except SingularB as err:
        raise CommandError(f"symplectic checks need an invertible B: {err}") from err


def checks_symplectic(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    pkg = _symplectic(derived)
    alg = pkg.algebroid
    gamma = pkg.gamma.value
    res1, _, _ = derived.dual_residuals
    worst, _ = derived.symplectic_max
    return [
        ("symplectic.twisted-jacobi", "inverse bivector satisfies the twisted Jacobi identity", "sym",
         gtb.schouten_check(pkg.theta[0], pkg.twist.value, scene.chart.sample_points())),
        ("symplectic.algebroid-torsion-free", "coframe connection is torsion-free", "sym",
         gtb.frame_torsion(gamma, alg.structure.value)),
        ("symplectic.algebroid-compatibility", "coframe connection preserves the fiber metric", "sym",
         gtb.covariant_derivative(gamma, alg.anchor.value, *pkg.g_A)),
        ("symplectic.scalar-two-paths", "coframe scalar residual equals the sheared metric Ricci trace",
         "sym", res1 - gconn.scalar_G(derived.theta_connection)),
    ], {"symplectic_max_abs": worst, "symplectic_on_shell": worst < streff.VANISH_TOL}


def checks_equivalence(scene: Scene, derived: streff.Derived) -> tuple[list, dict]:
    _symplectic(derived)
    (beta_max, _), (sym_max, _) = derived.beta_max, derived.symplectic_max
    beta_on, sym_on = beta_max < streff.VANISH_TOL, sym_max < streff.VANISH_TOL
    # the larger family residual, and its point; a NaN one comes first
    worst, at = ex.worst_of([derived.beta_max, derived.symplectic_max])
    verdict = ("inconsistent: one family vanishes without the other" if beta_on != sym_on
               else "equivalent: both on-shell" if beta_on else "equivalent: both off-shell")
    return [
        ("equivalence.ricci-transport", "Ricci tensors match through the bivector shear", "sym",
         derived.transport),
        ("equivalence.simultaneous-vanishing", "the two residual families vanish together",
         streff.VANISH_TOL, (0.0 if beta_on == sym_on else worst, at)),
    ], dict(beta_max_abs=beta_max, symplectic_max_abs=sym_max, beta_on_shell=beta_on,
            symplectic_on_shell=sym_on, verdict_text=verdict)


# Each suite returns its rows and its summary entries; `all` runs the suites
# in this order and merges the summaries.  A row is (name, identity,
# tolerance, residual): the tolerance is a key of the scene's tolerances or a
# number, and the residual a float array whose last axis runs over the
# sample points (``ex.max_abs_on_points``) or a (worst, point) pair for a
# check that picks its worst point itself.  A suite that cannot run on the
# scene raises CommandError before it builds anything.
SUITES = {
    "axioms": checks_axioms,
    "torsion": checks_torsion,
    "curvature": checks_curvature,
    "beta": checks_beta,
    "central": checks_central,
    "symplectic": checks_symplectic,
    "equivalence": checks_equivalence,
}
# The summary key under which `all` records why a suite could not run; a
# later suite with a key already recorded is skipped without being called.
SKIPPED = {"central": "central_skipped", "symplectic": "symplectic_skipped",
           "equivalence": "symplectic_skipped"}


def run_command(cmd: str, scene: Scene) -> Report:
    if cmd not in COMMANDS:
        raise CommandError(f"unknown command '{cmd}' (choose from {', '.join(COMMANDS)})")
    start = time.perf_counter()
    names = list(SUITES) if cmd == "all" else [cmd]
    pts = scene.chart.sample_points()
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
            if SKIPPED.get(name) in summary:
                continue
            try:
                rows, entries = SUITES[name](scene, derived)
            except CommandError as err:
                if cmd != "all":
                    raise
                summary[SKIPPED[name]] = str(err)
                continue
            for check_name, identity, tol, residual in rows:
                worst, at = residual if isinstance(residual, tuple) else ex.max_abs_on_points(residual, pts)
                tol = scene.tol(tol) if isinstance(tol, str) else tol
                checks.append(Check(check_name, identity, worst, tol, at))
            summary.update(entries)
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
