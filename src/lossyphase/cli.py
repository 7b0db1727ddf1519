"""Command-line front end (README, "Command line").

Every run writes an artifact embedding the resolved configuration, the
seed, the version, the wall time and the requested BLAS threads; the same
configuration and seed reproduce the numeric payload bit for bit.  Each
command's parameters are declared once, in `_PARAMS`.

Exit codes: 0 success, 2 usage/validation error (an --output that cannot
be written is one, found before any work), 3 resource guard tripped; a
run that exits 2 or 3 writes no file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import re
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import lossyphase
from lossyphase.detection import build_likelihood_table
from lossyphase.fisher import fisher_information
from lossyphase.optimizer import (METHODS, _chi_grid, _chi_grid_size, evaluate_plans,
                                  optimize, pareto_csv)
from lossyphase.sequences import BranchGuardError, SequencePlan
from lossyphase.states import (
    _state_for,
    forward_simulate_triport,
    make_loss_resistant,
    synthesize_triport,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The work guard of fisher-scan: chi points, each one Fisher evaluation and
# one CSV line.
_SCAN_BUDGET = 10 ** 6

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(\.\d*)?)?\s*\*?\s*pi(\s*/\s*(?P<den>\d+(\.\d*)?))?$"
)


def parse_angle(text: str | float) -> float:
    """Radians from a float, a float literal or a pi token like 'pi/4' or
    '3*pi/2'; a value that is not finite (nan, inf) is rejected."""
    text = str(text).strip()
    m = _PI_TOKEN.match(text)
    if m:
        val = math.pi * float(m.group("num") or 1.0)
        if m.group("den"):
            if float(m.group("den")) == 0.0:
                raise ValueError(f"angle {text!r} divides by zero")
            val /= float(m.group("den"))
        val = -val if m.group("sign") == "-" else val
    else:
        val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"angle {text!r} is not finite")
    return val


# Each command's (flag, cast, default) in the order its artifact's config
# lists them; a None default marks a required parameter.
_PARAMS = {
    "state-prep": [("chi", float, None), ("half-n", int, 1)],
    "probs": [("n-photons", int, None), ("chi", float, 0.0), ("eta", float, None)],
    "fisher-scan": [
        ("n-photons", int, None), ("eta", float, None),
        ("phi", parse_angle, "pi/4"), ("theta", parse_angle, "0.0"),
        ("chi-min", float, 0.0), ("chi-max", float, 2.0), ("chi-step", float, 0.02),
    ],
    "evaluate": [
        ("n1", int, 0), ("n2", int, 0), ("chi2", float, 0.0), ("n4", int, 0),
        ("chi4", float, 0.0), ("eta", float, None),
        ("method", str, "speedup"), ("trials", int, 10 ** 5),
    ],
    "optimize": [
        ("n", int, None), ("eta", float, None), ("chi-step", float, 0.1),
        ("method", str, "speedup"), ("trials", int, 10 ** 5),
    ],
}


def _resolve(args: argparse.Namespace) -> dict:
    """The artifact's config: command, the command's parameters, seed.
    Command-line flag wins, then config file, then the default.  A bool is
    no number, and an integer parameter refuses a non-integral number rather
    than truncating it."""
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    params = _PARAMS[args.command] + [("seed", int, 0)]
    known = {"command"} | {k for p in params for k in (p[0], p[0].replace("-", "_"))}
    for key in config:
        if key not in known:
            raise ValueError(f"config key {key!r} is not a parameter of {args.command}")
    cfg = {"command": args.command}
    for flag, cast, default in params:
        key = flag.replace("-", "_")
        val = getattr(args, key)
        if val is None:
            val = config.get(flag, config.get(key))
        if val is None:
            val = default
        if val is None:
            raise ValueError(f"missing required parameter --{flag}")
        if cast in (int, float) and (isinstance(val, bool) or cast is int and (
                isinstance(val, float) and not val.is_integer())):
            kind = "an integer" if cast is int else "a number"
            raise ValueError(f"--{flag}: {val!r} is not {kind}")
        try:
            cfg[key] = cast(val)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"--{flag}: {exc}") from exc
    if cfg.get("trials", 1) < 1:
        raise ValueError(f"--trials: {cfg['trials']} is below 1")
    if cfg["seed"] < 0:
        raise ValueError(f"--seed: {cfg['seed']} is negative")
    return cfg


def _cap_blas_threads() -> int | None:
    """One thread for numpy's bundled OpenBLAS, whose second thread costs
    more than it gains on the kernels' small products (README, "Performance
    notes").  Acts only when no variable of _BLAS_THREAD_VARS is set and
    the bundled library exports its setter; returns the thread count set."""
    if any(os.environ.get(k) is not None for k in _BLAS_THREAD_VARS):
        return None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)
            return 1
    return None


def _artifact(config: dict, t0: float, **result) -> dict:
    return {
        "config": config,
        "seed": config.get("seed"),
        "version": f"lossyphase {lossyphase.__version__}",
        "wall_time_ms": (time.perf_counter() - t0) * 1e3,
        "environment": {**{k: os.environ.get(k) for k in _BLAS_THREAD_VARS},
                        "cpu_count": os.cpu_count()},
        **result,
    }


def _check_output(output_path: str | None, sidecar: bool):
    """Refuse, before any work, an --output, or with sidecar its .csv
    sidecar, that could not be written."""
    if not output_path:
        return
    folder = os.path.dirname(os.path.abspath(output_path))
    if not os.path.isdir(folder):
        raise ValueError(f"--output: {folder} is not a directory")
    for path in (output_path, output_path + ".csv")[:1 + sidecar]:
        if os.path.isdir(path):
            raise ValueError(f"--output: {path} is a directory")
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise ValueError(f"--output: {path} cannot be written")


def _emit(content: str | dict, output_path: str | None):
    """Write CSV text as it is, or a JSON document as the encoder makes it
    (the bytes of json.dumps(content, indent=2) + "\n", never held whole),
    to the file or to stdout."""
    with open(output_path, "w") if output_path else nullcontext(sys.stdout) as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            json.dump(content, fh, indent=2)
            fh.write("\n")


# Each command returns (JSON result or None, CSV body or None).

def cmd_state_prep(cfg: dict):
    state = make_loss_resistant(cfg["half_n"], cfg["chi"])
    triport = synthesize_triport(cfg["chi"])
    simulated = forward_simulate_triport(triport, cfg["half_n"])
    return {
        "n_photons": state.n_photons,
        "amplitudes_re": [a.real for a in state.amplitudes],
        "amplitudes_im": [a.imag for a in state.amplitudes],
        "triport": {
            "r1": triport.r1, "r2": triport.r2, "r3": triport.r3,
            "phi1": triport.phi1, "phi2": triport.phi2,
        },
        "forward_fidelity": simulated.fidelity(state),
    }, None


def cmd_probs(cfg: dict):
    state = _state_for(cfg["n_photons"], cfg["chi"])
    return build_likelihood_table(state, cfg["eta"]).to_json_dict(), None


def cmd_fisher_scan(cfg: dict):
    # chi is rounded to 12 decimals, so a step below 1e-12 may not move it;
    # the range is checked for every N, since the single photon ignores chi.
    lo, hi, step = cfg["chi_min"], cfg["chi_max"], cfg["chi_step"]
    if not (1e-12 <= step < math.inf and 0.0 <= lo <= hi <= 2.0):
        raise ValueError("need chi-step >= 1e-12 and finite chi-max >= chi-min, "
                         "both in [0, 2]")
    points = _chi_grid_size(step, lo, hi)
    if points > _SCAN_BUDGET:
        raise BranchGuardError(f"{points} chi points exceed the work guard "
                               f"{_SCAN_BUDGET} for fisher-scan")
    lines = ["chi,fisher\n"]
    for chi in _chi_grid(step, lo, hi):
        f = fisher_information(_state_for(cfg["n_photons"], chi), cfg["eta"],
                               cfg["phi"], cfg["theta"])
        lines.append(f"{chi:.10g},{f!r}\n")
    return None, "".join(lines)


def cmd_evaluate(cfg: dict):
    plan = SequencePlan(cfg["n1"], cfg["n2"], cfg["chi2"], cfg["n4"],
                        cfg["chi4"], cfg["eta"])
    (report,) = evaluate_plans([plan], cfg["method"], cfg["trials"], cfg["seed"])
    return report.to_json_dict(), None


def cmd_optimize(cfg: dict):
    result = optimize(cfg["n"], cfg["eta"], cfg["chi_step"],
                      evaluator=cfg["method"], mc_trials=cfg["trials"],
                      mc_seed=cfg["seed"])
    payload = result.to_json_dict()
    # enumerate_plans puts the all-single-photon (SQL) plan first.
    payload["sql_baseline"] = payload["pareto_table"][0]["report"]["holevo_variance"]
    return payload, pareto_csv(result)


_COMMANDS = {
    "state-prep": (cmd_state_prep, "chi state, triport parameters, fidelity"),
    "probs": (cmd_probs, "dump the outcome-likelihood table"),
    "fisher-scan": (cmd_fisher_scan, "CSV of Fisher information over chi"),
    "evaluate": (cmd_evaluate, "evaluate one sequence plan"),
    "optimize": (cmd_optimize, "search plans at fixed photon budget"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossyphase",
        description="Loss-resistant adaptive phase estimation toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    # Subparsers re-declare the global flags with SUPPRESS defaults so they
    # may appear on either side of the subcommand without clobbering.
    for p, dfl in ((parser, lambda v: v), (common, lambda v: argparse.SUPPRESS)):
        p.add_argument("--config", default=dfl(None),
                       help="JSON config file; flags override it")
        p.add_argument("--output", default=dfl(None),
                       help="artifact path (stdout when absent)")
        p.add_argument("--format", choices=("json", "csv"), default=dfl("json"))
        p.add_argument("--seed", type=int, default=dfl(None))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for flag, cast, _ in _PARAMS[command]:
            # Angles stay text here; the resolver parses them.
            p.add_argument(f"--{flag}", type=cast if cast in (int, float) else str,
                           choices=METHODS if flag == "method" else None)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join a value that starts with '-' to its flag: --phi -pi/2 becomes
    --phi=-pi/2.  argparse takes such a token for an option unless it reads
    as a plain negative number, so -pi/2 or -inf would never reach its
    parser.  Every flag but --help takes one value; a following '--flag'
    or -h is left alone, so a missing value is still reported as one."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok.startswith("-") and not tok.startswith("--") and tok != "-h"
                and prev.startswith("--") and "=" not in prev
                and prev not in ("--", "--help")):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _cap_blas_threads()
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args)
        # optimize is the one command with both a JSON result and a CSV body.
        _check_output(args.output, args.command == "optimize" and args.format == "json")
        payload, csv_body = _COMMANDS[args.command][0](cfg)
    except BranchGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    csv_text = csv_body and f"# {json.dumps(_artifact(cfg, t0))}\n" + csv_body
    if payload is None or (csv_text and args.format == "csv"):
        _emit(csv_text, args.output)
    else:
        _emit(_artifact(cfg, t0, result=payload), args.output)
        if csv_text and args.output:
            _emit(csv_text, args.output + ".csv")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
