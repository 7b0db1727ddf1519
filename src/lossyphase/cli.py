"""Command-line front end.

Commands: state-prep, probs, fisher-scan, evaluate, optimize.  Every run
writes a machine-readable artifact embedding the fully resolved
configuration, the seed, the package version, the wall time and the
requested BLAS threads (`environment`; in the one `#` line of CSV output);
rerunning with the same configuration and seed reproduces the numeric payload.
When neither `OPENBLAS_NUM_THREADS` nor `OMP_NUM_THREADS` is set, the CLI
runs numpy's bundled OpenBLAS on one thread (see `_cap_blas_threads`).

Each command's parameters are declared once, in `_PARAMS`, which makes the
flags, reads the config file and fills the defaults.  A parameter comes
from its flag, else from the `--config` JSON object, else from its default.
Config keys may be spelled as the flag (`chi-step`) or as the artifact's
`config` records them (`chi_step`), so an artifact's `config` fed back
through `--config` reruns it.  `command` and `seed` are accepted too; any
other key exits 2, naming the key.

Exit codes: 0 success, 2 usage/validation error, 3 resource guard tripped.
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
from pathlib import Path

import numpy as np

import lossyphase
from lossyphase.detection import build_likelihood_table
from lossyphase.fisher import fisher_information
from lossyphase.optimizer import METHODS, evaluate_plans, optimize, pareto_csv
from lossyphase.sequences import BranchGuardError, SequencePlan
from lossyphase.states import (
    forward_simulate_triport,
    make_loss_resistant,
    make_single_photon,
    synthesize_triport,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(\.\d*)?)?\s*\*?\s*pi(\s*/\s*(?P<den>\d+(\.\d*)?))?$"
)


def parse_angle(text: str | float) -> float:
    """Radians from a float, a float literal or a pi token like 'pi/4' or '3*pi/2'."""
    text = str(text).strip()
    m = _PI_TOKEN.match(text)
    if m:
        val = math.pi * float(m.group("num") or 1.0)
        if m.group("den"):
            if float(m.group("den")) == 0.0:
                raise ValueError(f"angle {text!r} divides by zero")
            val /= float(m.group("den"))
        return -val if m.group("sign") == "-" else val
    return float(text)


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


class UsageError(ValueError):
    pass


def _resolve(args: argparse.Namespace) -> dict:
    """The artifact's config: command, the command's parameters, seed.
    Command-line flag wins, then config file, then the default."""
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    params = _PARAMS[args.command] + [("seed", int, 0)]
    known = {"command"} | {k for p in params for k in (p[0], p[0].replace("-", "_"))}
    for key in config:
        if key not in known:
            raise UsageError(f"config key {key!r} is not a parameter of {args.command}")
    cfg = {"command": args.command}
    for flag, cast, default in params:
        key = flag.replace("-", "_")
        val = getattr(args, key)
        if val is None:
            val = config.get(flag, config.get(key))
        if val is None:
            val = default
        if val is None:
            raise UsageError(f"missing required parameter --{flag}")
        cfg[key] = cast(val)
    if cfg.get("trials", 1) < 1:
        raise UsageError("trials must be >= 1")
    return cfg


def _cap_blas_threads() -> int | None:
    """One thread for numpy's bundled OpenBLAS, unless the environment asks.

    The kernels' matrix products are small: on a 2-core host two threads
    made `optimize --n 9` 1.8x slower while the other core was busy and
    gained nothing while it was idle (README, "Performance notes").  Acts
    only when no variable of _BLAS_THREAD_VARS is set and the bundled
    library exports its setter; returns the thread count it set.
    """
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


def _emit(text: str, output_path: str | None):
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _state_for(n_photons: int, chi: float):
    if n_photons == 1:
        return make_single_photon()
    if n_photons in (2, 4):
        return make_loss_resistant(n_photons // 2, chi)
    raise UsageError("n-photons must be 1, 2, or 4")


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
    # chi advances rounded to 12 decimals: a step below 1e-12 may not move it,
    # and nothing stops an infinite chi-max (the single photon ignores chi).
    lo, hi = cfg["chi_min"], cfg["chi_max"]
    if not cfg["chi_step"] >= 1e-12 or not -math.inf < lo <= hi < math.inf:
        raise UsageError("need chi-step >= 1e-12 and finite chi-max >= chi-min")
    lines = ["chi,fisher\n"]
    chi = lo
    while chi <= hi + 1e-12:
        f = fisher_information(_state_for(cfg["n_photons"], chi), cfg["eta"],
                               cfg["phi"], cfg["theta"])
        lines.append(f"{chi:.10g},{f!r}\n")
        chi = round(chi + cfg["chi_step"], 12)
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


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _cap_blas_threads()
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args)
        payload, csv_body = _COMMANDS[args.command][0](cfg)
    except BranchGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    csv_text = csv_body and f"# {json.dumps(_artifact(cfg, t0))}\n" + csv_body
    if payload is None or (csv_text and args.format == "csv"):
        _emit(csv_text, args.output)
    else:
        _emit(json.dumps(_artifact(cfg, t0, result=payload), indent=2) + "\n",
              args.output)
        if csv_text and args.output:
            _emit(csv_text, args.output + ".csv")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
