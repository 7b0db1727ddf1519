"""Command-line front end.

Commands: state-prep, probs, fisher-scan, evaluate, optimize.  Every run
writes a machine-readable artifact embedding the fully resolved
configuration, the seed, the package version, the wall time and the
requested BLAS threads (`environment`; in the one `#` line of CSV output);
rerunning with the same configuration and seed reproduces the numeric payload.

Exit codes: 0 success, 2 usage/validation error, 3 resource guard tripped,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import lossyphase
from lossyphase.detection import build_likelihood_table
from lossyphase.fisher import FisherDivergenceError, fisher_from_table
from lossyphase.optimizer import optimize, pareto_csv
from lossyphase.sequences import (
    BranchGuardError,
    SequencePlan,
    evaluate_exact,
    evaluate_exact_with_speedup,
    evaluate_monte_carlo,
)
from lossyphase.states import (
    forward_simulate_triport,
    make_loss_resistant,
    make_single_photon,
    synthesize_triport,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_DIVERGENCE = 4
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(\.\d*)?)?\s*\*?\s*pi(\s*/\s*(?P<den>\d+(\.\d*)?))?$"
)


def parse_angle(text: str) -> float:
    """Radians from a float literal or a pi token like 'pi/4' or '3*pi/2'."""
    text = text.strip()
    m = _PI_TOKEN.match(text)
    if m:
        val = math.pi * float(m.group("num") or 1.0)
        if m.group("den"):
            val /= float(m.group("den"))
        return -val if m.group("sign") == "-" else val
    return float(text)


class UsageError(ValueError):
    pass


def _resolve(args: argparse.Namespace, config: dict, key: str, default=None):
    """Command-line flag wins, then config file, then the default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _require(value, name: str):
    if value is None:
        raise UsageError(f"missing required parameter --{name}")
    return value


def _artifact(config: dict, payload: dict, t0: float) -> dict:
    return {
        "config": config,
        "seed": config.get("seed"),
        "version": f"lossyphase {lossyphase.__version__}",
        "wall_time_ms": (time.perf_counter() - t0) * 1e3,
        "environment": {**{k: os.environ.get(k) for k in _BLAS_THREAD_VARS},
                        "cpu_count": os.cpu_count()},
        "result": payload,
    }


def _emit(text: str, output_path: str | None):
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, output_path: str | None):
    _emit(json.dumps(doc, indent=2) + "\n", output_path)


def _csv_meta_lines(config: dict, t0: float) -> str:
    meta = _artifact(config, None, t0)
    del meta["result"]
    return f"# {json.dumps(meta)}\n"


def _state_for(n_photons: int, chi: float):
    if n_photons == 1:
        return make_single_photon()
    if n_photons in (2, 4):
        return make_loss_resistant(n_photons // 2, chi)
    raise UsageError("n-photons must be 1, 2, or 4")


def cmd_state_prep(args, config) -> int:
    t0 = time.perf_counter()
    chi = float(_require(_resolve(args, config, "chi"), "chi"))
    half_n = int(_resolve(args, config, "half-n", 1))
    state = make_loss_resistant(half_n, chi)
    triport = synthesize_triport(chi)
    simulated = forward_simulate_triport(triport, half_n)
    fidelity = simulated.fidelity(state)
    resolved = {"command": "state-prep", "chi": chi, "half_n": half_n,
                "seed": _resolve(args, config, "seed", 0)}
    payload = {
        "n_photons": state.n_photons,
        "amplitudes_re": [a.real for a in state.amplitudes],
        "amplitudes_im": [a.imag for a in state.amplitudes],
        "triport": {
            "r1": triport.r1, "r2": triport.r2, "r3": triport.r3,
            "phi1": triport.phi1, "phi2": triport.phi2,
        },
        "forward_fidelity": fidelity,
    }
    _emit_json(_artifact(resolved, payload, t0), args.output)
    return EXIT_OK


def cmd_probs(args, config) -> int:
    t0 = time.perf_counter()
    n_photons = int(_require(_resolve(args, config, "n-photons"), "n-photons"))
    chi = float(_resolve(args, config, "chi", 0.0))
    eta = float(_require(_resolve(args, config, "eta"), "eta"))
    table = build_likelihood_table(_state_for(n_photons, chi), eta)
    resolved = {"command": "probs", "n_photons": n_photons, "chi": chi,
                "eta": eta, "seed": _resolve(args, config, "seed", 0)}
    _emit_json(_artifact(resolved, table.to_json_dict(), t0), args.output)
    return EXIT_OK


def cmd_fisher_scan(args, config) -> int:
    t0 = time.perf_counter()
    n_photons = int(_require(_resolve(args, config, "n-photons"), "n-photons"))
    eta = float(_require(_resolve(args, config, "eta"), "eta"))
    phi = parse_angle(str(_resolve(args, config, "phi", "pi/4")))
    theta = parse_angle(str(_resolve(args, config, "theta", "0.0")))
    chi_min = float(_resolve(args, config, "chi-min", 0.0))
    chi_max = float(_resolve(args, config, "chi-max", 2.0))
    chi_step = float(_resolve(args, config, "chi-step", 0.02))
    if chi_step <= 0 or chi_max < chi_min:
        raise UsageError("need chi-step > 0 and chi-max >= chi-min")
    resolved = {"command": "fisher-scan", "n_photons": n_photons, "eta": eta,
                "phi": phi, "theta": theta, "chi_min": chi_min,
                "chi_max": chi_max, "chi_step": chi_step,
                "seed": _resolve(args, config, "seed", 0)}
    lines = ["chi,fisher\n"]
    chi = chi_min
    while chi <= chi_max + 1e-12:
        table = build_likelihood_table(_state_for(n_photons, chi), eta)
        try:
            f = fisher_from_table(table, phi, theta)
            lines.append(f"{chi:.10g},{f!r}\n")
        except FisherDivergenceError as exc:
            print(f"warning: divergence at chi={chi:.10g}: {exc}",
                  file=sys.stderr)
            lines.append(f"{chi:.10g},nan\n")
        chi = round(chi + chi_step, 12)
    _emit(_csv_meta_lines(resolved, t0) + "".join(lines), args.output)
    return EXIT_OK


def _build_plan(args, config) -> SequencePlan:
    return SequencePlan(
        n1=int(_resolve(args, config, "n1", 0)),
        n2=int(_resolve(args, config, "n2", 0)),
        chi2=float(_resolve(args, config, "chi2", 0.0)),
        n4=int(_resolve(args, config, "n4", 0)),
        chi4=float(_resolve(args, config, "chi4", 0.0)),
        eta=float(_require(_resolve(args, config, "eta"), "eta")),
    )


def cmd_evaluate(args, config) -> int:
    t0 = time.perf_counter()
    plan = _build_plan(args, config)
    method = _resolve(args, config, "method", "speedup")
    seed = int(_resolve(args, config, "seed", 0))
    trials = int(_resolve(args, config, "trials", 10 ** 5))
    if method == "exact":
        report = evaluate_exact(plan)
    elif method == "speedup":
        report = evaluate_exact_with_speedup(plan)
    elif method == "mc":
        report = evaluate_monte_carlo(plan, trials, seed)
    else:
        raise UsageError(f"unknown method {method!r}")
    resolved = {"command": "evaluate", "n1": plan.n1, "n2": plan.n2,
                "chi2": plan.chi2, "n4": plan.n4, "chi4": plan.chi4,
                "eta": plan.eta, "method": method, "trials": trials,
                "seed": seed}
    _emit_json(_artifact(resolved, report.to_json_dict(), t0), args.output)
    return EXIT_OK


def cmd_optimize(args, config) -> int:
    t0 = time.perf_counter()
    total = int(_require(_resolve(args, config, "n"), "n"))
    eta = float(_require(_resolve(args, config, "eta"), "eta"))
    chi_step = float(_resolve(args, config, "chi-step", 0.1))
    method = _resolve(args, config, "method", "speedup")
    seed = int(_resolve(args, config, "seed", 0))
    trials = int(_resolve(args, config, "trials", 10 ** 5))
    result = optimize(total, eta, chi_step, evaluator=method,
                      mc_trials=trials, mc_seed=seed)
    resolved = {"command": "optimize", "n": total, "eta": eta,
                "chi_step": chi_step, "method": method, "seed": seed,
                "trials": trials}
    doc = _artifact(resolved, result.to_json_dict(), t0)
    # enumerate_plans puts the all-single-photon (SQL) plan first.
    doc["result"]["sql_baseline"] = result.pareto_table[0][1].holevo_variance
    csv_text = _csv_meta_lines(resolved, t0) + pareto_csv(result)
    if args.format == "csv":
        _emit(csv_text, args.output)
    else:
        _emit_json(doc, args.output)
        if args.output:
            _emit(csv_text, args.output + ".csv")
    return EXIT_OK


_COMMANDS = {
    "state-prep": cmd_state_prep,
    "probs": cmd_probs,
    "fisher-scan": cmd_fisher_scan,
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
}


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool):
    # Subparsers re-declare the global flags with SUPPRESS defaults so they
    # may appear on either side of the subcommand without clobbering.
    def dfl(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--config", default=dfl(None),
                        help="JSON config file; flags override it")
    parser.add_argument("--output", default=dfl(None),
                        help="artifact path (stdout when absent)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=dfl("json"))
    parser.add_argument("--seed", type=int, default=dfl(None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossyphase",
        description="Loss-resistant adaptive phase estimation toolkit",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state-prep", parents=[common],
                       help="chi state, triport parameters, fidelity")
    p.add_argument("--chi", type=float)
    p.add_argument("--half-n", type=int)

    p = sub.add_parser("probs", parents=[common], help="dump the outcome-likelihood table")
    p.add_argument("--n-photons", type=int)
    p.add_argument("--chi", type=float)
    p.add_argument("--eta", type=float)

    p = sub.add_parser("fisher-scan", parents=[common], help="CSV of Fisher information over chi")
    p.add_argument("--n-photons", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--phi", type=str)
    p.add_argument("--theta", type=str)
    p.add_argument("--chi-min", type=float)
    p.add_argument("--chi-max", type=float)
    p.add_argument("--chi-step", type=float)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate one sequence plan")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--chi2", type=float)
    p.add_argument("--n4", type=int)
    p.add_argument("--chi4", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--method", choices=("exact", "speedup", "mc"))
    p.add_argument("--trials", type=int)

    p = sub.add_parser("optimize", parents=[common], help="search plans at fixed photon budget")
    p.add_argument("--n", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--chi-step", type=float)
    p.add_argument("--method", choices=("exact", "speedup", "mc"))
    p.add_argument("--trials", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, config)
    except BranchGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except FisherDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
