"""Command-line front end.

Subcommands: simulate, report, sweep, reproduce, verify.
Exit codes: 0 success, 1 validation/check failure, 2 solver divergence,
3 reproduction line-item failure, 141 stdout closed before all output was written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    DEFAULT_OUT_DIR,
    RunConfig,
    config_from_entries,
    parse_config_text,
    parse_grid,
)
from .model import (
    EquilibriumKind,
    State,
    ValidationError,
    equilibria,
    equilibrium,
    thresholds,
)
from .reproduce import EXAMPLE_IDS, reproduce
from .runs import solve_model
from .solver import DivergenceError, SolverConfig
from .stability import classify_equilibrium
from .trajectory_io import alpha_tag, format_float, save_trajectory_csv
from .verification import (
    LYAPUNOV_SLACK,
    boundedness_certificate,
    check_nonnegativity,
    convergence_check,
    empirical_lipschitz_ratio,
    lipschitz_bound,
    lyapunov_monotonicity,
)

REPORT_ALPHAS = (0.6, 2.0 / 3.0, 0.85, 0.95, 1.0)
PIPE_CLOSED = 128 + 13  # the shell's code for a process ended by SIGPIPE
CONVERGENCE_TOL = 0.05  # verify's max-norm tail distance to the stable target
E_STAR_NOTE = (  # verify's E* row names the theta band without relying on it
    ", the paper's condition; no V of this form decreases everywhere toward E*:"
    " grad V . f > 0 at (S*, I, P*) with I != I*"
)
DIVERGENCE_HINT = (
    "hint: the model's solutions from non-negative initial states stay bounded, "
    "so a blow-up is a failure of the explicit predictor-corrector scheme. A smaller "
    "--step (solver.step in a config file) cures a step too coarse for the dynamics, "
    "but not a population that collapses toward zero: the scheme can step it below "
    "zero, where it grows, and a smaller step then only delays the blow-up"
)


_FLAGS = {  # flag: (the config key its text sets, help)
    "preset": ("model.preset", "built-in parameter set name"),
    "config": (None, "path to a key-value config file"),
    "alpha": ("solver.alpha", "comma-separated fractional orders in (0,1]"),
    "step": ("solver.step", "uniform grid spacing"),
    "t-end": ("solver.t_end", "end time"),
    "out": ("output.directory", "output directory"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """--preset and --config, plus the named flags of the subcommand."""
    for name in ("preset", "config", *names):
        parser.add_argument(f"--{name}", help=_FLAGS[name][1])


def _resolve_config(
    args, default_alphas: tuple[float, ...] = (), default_out: str = ""
) -> RunConfig:
    entries: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        entries = parse_config_text(path.read_text(encoding="utf-8"))
    for name, (key, _) in _FLAGS.items():  # a flag the user gives sets its key
        text = getattr(args, name.replace("-", "_"), None)
        if key is not None and text is not None:
            entries[key] = ([item for item in text.split(",") if item.strip()]
                            if name == "alpha" else text)
    if not any(k.startswith("model.") for k in entries):
        raise ValidationError("no model given: use --preset or a config file")
    if default_alphas:
        entries.setdefault("solver.alpha", list(default_alphas))
    if default_out:
        entries.setdefault("output.directory", default_out)
    return config_from_entries(entries)


def _state_tag(x0: State) -> str:
    return f"({x0.susceptible:g},{x0.infected:g},{x0.predator:g})"


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    SolverConfig(step=cfg.step, t_end=cfg.t_end).node_count()  # a bad grid writes nothing
    runs: dict[str, tuple[float, State]] = {}  # file name -> (order, initial state)
    for alpha in cfg.alphas:
        for j, x0 in enumerate(cfg.initial_states):
            name = f"traj_alpha{alpha_tag(alpha)}_x{j}.csv"
            if name in runs:  # a second run would overwrite the first one's file
                raise ValidationError(f"orders {runs[name][0]!r} and {alpha!r} both write {name}")
            runs[name] = (alpha, x0)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / "summary.txt", "w", encoding="utf-8") as summary:

        def emit(line: str) -> None:  # summary.txt keeps each line as it is printed
            print(line)
            summary.write(line + "\n")

        emit(f"model: {cfg.preset_name or 'custom'}")
        for name, (alpha, x0) in runs.items():  # each run is solved, written and dropped in turn
            traj = solve_model(cfg.params, alpha, x0, cfg.step, cfg.t_end)
            save_trajectory_csv(traj, cfg.out_dir / name)
            nn = check_nonnegativity(traj)
            bc = boundedness_certificate(cfg.params, traj)
            final = ",".join(format_float(v) for v in traj.final_state)
            emit(
                f"alpha={alpha:g} x0={_state_tag(x0)} file={name} "
                f"final=({final}) nonnegative={'pass' if nn.passed else 'fail'} "
                f"bounded={'pass' if bc.passed else 'fail'} "
                f"(max V {bc.worst_value:.6g}, bound {bc.bound:.6g})"
            )
    print(f"wrote {len(runs)} trajectory file(s) to {cfg.out_dir}")
    return 0


def _condition(c) -> str:
    """One condition as ``name: yes|no (margin m)``, or ``name: n/a (reason)``."""
    if c.margin is None:
        return f"{c.name}: n/a ({c.undefined})"
    return f"{c.name}: {'yes' if c.satisfied else 'no'} (margin {c.margin:.4g})"


def _fmt_threshold(th, name: str) -> str:
    value = getattr(th, name)
    return f"n/a ({th.undefined[name]})" if value is None else f"{value:.6g}"


def cmd_report(args) -> int:
    cfg = _resolve_config(args, default_alphas=REPORT_ALPHAS)
    params, alphas = cfg.params, cfg.alphas
    th = thresholds(params)
    lines = [f"model: {cfg.preset_name or 'custom'}"]
    lines.append("thresholds:")
    lines.append(f"  R0 (infection invasion)      = {th.reproduction_number:.6g}")
    lines.append(f"  d1 (E2 local stability)      = {_fmt_threshold(th, 'predator_death_local')}")
    lines.append(f"  d2 (E2 global stability)     = {_fmt_threshold(th, 'predator_death_global')}")
    lines.append(f"  theta1 (E* existence)        = {_fmt_threshold(th, 'conversion_existence')}")
    lines.append(
        f"  theta2 (paper's E* condition, S* at theta={params.conversion_efficiency:g}) "
        f"= {_fmt_threshold(th, 'conversion_global')}"
    )
    lines.append(
        f"  (1 + sqrt(1 + r/mu))/2 (E2 node/focus boundary as R0 value) "
        f"= {th.focus_boundary:.6g}"
    )
    lines.append("equilibria:")
    for eq in equilibria(params):
        if eq.state is None:
            coords = "undefined"
        else:
            coords = (
                f"({eq.state.susceptible:.6g}, {eq.state.infected:.6g}, "
                f"{eq.state.predator:.6g})"
            )
        conds = "; ".join(map(_condition, eq.conditions))
        lines.append(
            f"  {eq.kind.value:3s} {coords} exists={'yes' if eq.exists else 'no'}"
            + (f" [{conds}]" if conds else "")
        )
    lines.append("stability (rows: equilibrium, columns: order):")
    header = "  {:4s} ".format("") + " ".join(f"{a:>18.4g}" for a in alphas)
    lines.append(header)
    for eq in equilibria(params):
        if not eq.exists:
            lines.append(f"  {eq.kind.value:4s} " + " ".join(["{:>18s}".format("-")] * len(alphas)))
            continue
        cells = []
        for alpha in alphas:
            verdict = classify_equilibrium(params, eq, alpha)
            tag = verdict.label + (f"({verdict.case})" if verdict.case else "")
            cells.append(f"{tag:>18s}")
        lines.append(f"  {eq.kind.value:4s} " + " ".join(cells))
    print("\n".join(lines))
    return 0


_SWEEP_FIELDS = ("exists", "S", "I", "P", "label", "margin", "critical_order")


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args, default_out=".")  # --out or output.directory, else here
    name, field, grid = parse_grid(args.vary)
    # a path ending in .csv names the file, any other the directory of sweep.csv
    out_path = cfg.out_dir if cfg.out_dir.name.endswith(".csv") else cfg.out_dir / "sweep.csv"

    kinds = [k.value for k in EquilibriumKind]
    header = ["parameter", "value", "alpha"] + [
        f"{kind}_{f}" for kind in kinds for f in _SWEEP_FIELDS
    ]
    rows = []
    for value in grid:
        try:
            params = cfg.params.replace(**{field: float(value)})
        except ValidationError as exc:
            raise ValidationError(
                f"grid value {value:g} leaves the valid region: {exc}"
            ) from None
        for alpha in cfg.alphas:
            cells = [name, format_float(value), format_float(alpha)]
            for eq in equilibria(params):
                coords = (math.nan,) * 3 if eq.state is None else eq.state.as_array()
                if eq.exists:
                    verdict = classify_equilibrium(params, eq, alpha)
                    flag, label = "1", verdict.label
                    margin, critical = verdict.margin, verdict.critical_order
                else:
                    flag, label, margin, critical = "0", "-", math.nan, math.nan
                cells += [flag, *map(format_float, coords), label,
                          format_float(margin), format_float(critical)]
            rows.append(",".join(cells))
    out_path.parent.mkdir(parents=True, exist_ok=True)  # only once every row is built
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {len(rows)} sweep row(s) to {out_path}")
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.example, out_dir=args.out)
    print(report.render())
    return 3 if report.failed else 0


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    if SolverConfig(step=cfg.step, t_end=cfg.t_end).node_count() < 1:
        raise ValidationError(  # one node measures nothing: no verdict on it
            f"verify needs at least two nodes: t_end = {cfg.t_end!r} is less than"
            f" one step {cfg.step!r}"
        )
    params = cfg.params
    all_ok = True
    peak = 60.0  # the Lipschitz box covers at least [0, 72]^3
    band = equilibrium(params, EquilibriumKind.COEXISTENCE).hypothesis  # the paper's E* band
    for alpha in cfg.alphas:
        verdicts = {eq.kind: (eq, classify_equilibrium(params, eq, alpha))
                    for eq in equilibria(params) if eq.exists}
        stable_target = next((eq for eq, verdict in verdicts.values() if verdict.stable), None)
        skipped = "  no stable equilibrium at this order; convergence skipped"
        if stable_target is None and EquilibriumKind.COEXISTENCE in verdicts and band.satisfied:
            verdict = verdicts[EquilibriumKind.COEXISTENCE][1]
            skipped += (
                f"; the paper's E* condition {_condition(band)}, yet E* is not stable"
                f" at this order ({verdict.label}, critical order {verdict.critical_order:.4g})"
            )
        for x0 in cfg.initial_states:
            traj = solve_model(params, alpha, x0, cfg.step, cfg.t_end)
            peak = max(peak, float(np.abs(traj.states).max()))
            nn = check_nonnegativity(traj)
            bc = boundedness_certificate(params, traj)
            print(
                f"alpha={alpha:g} x0={_state_tag(x0)}: "
                f"nonnegativity {'pass' if nn.passed else 'fail'} "
                f"(worst undershoot {nn.worst_undershoot.max():.3g}); "
                f"boundedness {'pass' if bc.passed else 'fail'} "
                f"(max V {bc.worst_value:.6g} vs bound {bc.bound:.6g}, eta={bc.eta:g})"
            )
            all_ok &= nn.passed and bc.passed

            if stable_target is not None:
                conv = convergence_check(traj, stable_target.state, tol=CONVERGENCE_TOL)
                print(
                    f"  convergence to {stable_target.kind.value}: "
                    f"{'pass' if conv.converged else 'fail'} "
                    f"(max tail distance {conv.max_tail_distance:.4g}, tol {CONVERGENCE_TOL:g})"
                )
                all_ok &= conv.converged
                # E0 is never the target: its Jacobian has the eigenvalue r > 0
                ly = lyapunov_monotonicity(params, stable_target, traj)
                print(
                    f"  Lyapunov decrease toward {stable_target.kind.value}: "
                    f"{'pass' if ly.monotone else 'fail'} "
                    f"(max increase {ly.max_increase:.3g}, slack {LYAPUNOV_SLACK:g}; "
                    f"hypothesis {_condition(stable_target.hypothesis)}"
                    + (E_STAR_NOTE if stable_target.kind is EquilibriumKind.COEXISTENCE else "")
                    + ")"
                )
                all_ok &= ly.monotone
            else:
                print(skipped)

    radius = 1.2 * peak
    bound = lipschitz_bound(params, radius)
    observed = empirical_lipschitz_ratio(params, radius, pairs=2000)
    ok = observed <= bound
    print(
        f"Lipschitz bound on [0,{radius:.4g}]^3: {'pass' if ok else 'fail'} "
        f"(bound {bound:.6g}, observed {observed:.6g})"
    )
    all_ok &= ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracoepi",
        description=(
            "fractional-order eco-epidemiological toolkit: simulation, "
            "stability reports, parameter sweeps, verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate and write trajectory CSVs")
    _add_flags(p, "alpha", "step", "t-end", "out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="thresholds, equilibria and stability table")
    _add_flags(p, "alpha")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="classification grid over one parameter")
    _add_flags(p, "alpha", "out")
    p.add_argument("--vary", required=True, help="name=start:stop:count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a bundled scenario against references")
    p.add_argument("example", choices=list(EXAMPLE_IDS))
    p.add_argument("--out", default=DEFAULT_OUT_DIR, help=_FLAGS["out"][1])
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="run the verification battery on a run")
    _add_flags(p, "alpha", "step", "t-end")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits: keep usage errors on code 1
        return 0 if exc.code == 0 else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (say `| head`): stop quietly with the
        # code of a process ended by SIGPIPE, and send the exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED
    except (ValueError, OSError) as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        print(DIVERGENCE_HINT, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
