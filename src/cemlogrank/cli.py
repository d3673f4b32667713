"""Command-line interface.

Subcommands: simulate (emit a cohort CSV), match, test, experiment.  Exit
codes: 0 success, 2 input error, 3 numeric failure.  Test decisions are data
in the output, never encoded in the exit status.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, dataio
from .errors import (
    ConfigError,
    DatasetFormatError,
    RankDeficiencyError,
    SeparationError,
    WeightOverflowError,
)
from .experiment import run_experiment
from .iptw import fit_logistic, iptw_logrank, iptw_weights
from .logrank import run_test
from .matching import match
from .simulate import Scenario, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemlogrank",
        description="Matched and inverse-weighted log-rank testing for survival data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    sim.add_argument("--config", type=Path, help="scenario JSON (overridden by flags)")
    sim.add_argument("--n", type=int)
    sim.add_argument("--model", choices=["model1", "model2"])
    sim.add_argument("--hypothesis", choices=["null", "alternative"])
    sim.add_argument("--seed", type=int)
    sim.add_argument("--censor-upper", type=float)
    sim.add_argument("--horizon", type=float)
    sim.add_argument("--replicate", type=int, default=0)
    sim.add_argument("--output", type=Path, required=True)

    mat = sub.add_parser("match", help="assign strata and matched sets")
    mat.add_argument("dataset", type=Path)
    mat.add_argument("--scheme", type=Path, required=True)
    mat.add_argument("--horizon", type=float)
    mat.add_argument("--output", type=Path)

    tst = sub.add_parser("test", help="run the weighted log-rank test")
    tst.add_argument("dataset", type=Path)
    tst.add_argument("--scheme", type=Path, help="required for --method cem")
    tst.add_argument("--method", choices=["cem", "iptw"], default="cem")
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.add_argument("--direction", choices=["upper", "lower", "two_sided"], default="two_sided")
    tst.add_argument("--weight-fn", type=Path, help="step-function JSON; constant 1 when absent")
    tst.add_argument("--horizon", type=float)
    tst.add_argument("--features", default="x1,x2", help="IPTW covariate columns, e.g. x1,x2")
    tst.add_argument("--emit-path", action="store_true", help="include the statistic path")
    tst.add_argument("--output", type=Path)

    exp = sub.add_parser("experiment", help="replicated simulation experiment")
    exp.add_argument("--config", type=Path, required=True)
    exp.add_argument("--seed", type=int)
    exp.add_argument("--threads", type=int)
    exp.add_argument("--method", choices=["cem", "iptw", "both"])
    exp.add_argument("--alpha", type=float)
    exp.add_argument("--direction", choices=["upper", "lower", "two_sided"])
    exp.add_argument("--theta", type=float)
    exp.add_argument("--replications", type=int)
    exp.add_argument("--output-dir", type=Path, default=Path("."))

    return parser


def _emit(payload: dict, output: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)
        print(f"wrote {output}")


def _scenario_from_args(args) -> Scenario:
    overrides = {
        "n": args.n,
        "assignment_model": args.model,
        "hypothesis": args.hypothesis,
        "seed": args.seed,
        "censor_upper": args.censor_upper,
        "horizon": args.horizon,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}

    def build(base: dict) -> Scenario:
        base = {**base, **overrides}
        if "n" not in base:
            raise ConfigError("simulate needs --n or a config with n")
        return Scenario.from_dict(base)

    if args.config:
        return dataio.load_json_object(args.config, "scenario", build)
    try:
        return build({})
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    cohort = generate(scenario, replicate=args.replicate)
    dataio.write_cohort_csv(cohort, args.output)
    print(f"wrote {args.output} ({len(cohort)} subjects)")
    return EXIT_OK


def _check_dimensions(cohort, scheme) -> None:
    d = cohort.covariate_matrix.shape[1]
    if d != scheme.dimension:
        raise ConfigError(
            f"dataset has {d} covariates but the scheme covers {scheme.dimension}"
        )


def cmd_match(args) -> int:
    scheme = dataio.load_scheme(args.scheme)
    cohort = dataio.read_cohort_csv(args.dataset, horizon=args.horizon)
    _check_dimensions(cohort, scheme)
    mc = match(cohort, scheme)
    config_source = {
        "command": "match",
        "dataset": str(args.dataset),
        "scheme": scheme.to_dict(),
        "horizon": cohort.horizon,
    }
    report = dataio.match_report(mc, config_source)
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(report, args.output)
    return EXIT_OK


def cmd_test(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha!r}")
    cohort = dataio.read_cohort_csv(args.dataset, horizon=args.horizon)
    weight_fn = dataio.load_weight_fn(args.weight_fn) if args.weight_fn else None
    config_source = {
        "command": "test",
        "dataset": str(args.dataset),
        "method": args.method,
        "alpha": args.alpha,
        "direction": args.direction,
        "horizon": cohort.horizon,
        "weight_fn": weight_fn.to_dict() if weight_fn else None,
    }
    if args.method == "cem":
        if not args.scheme:
            raise ConfigError("--method cem requires --scheme")
        scheme = dataio.load_scheme(args.scheme)
        _check_dimensions(cohort, scheme)
        config_source["scheme"] = scheme.to_dict()
        result = run_test(
            match(cohort, scheme),
            weight_fn=weight_fn,
            alpha=args.alpha,
            direction=args.direction,
            include_path=args.emit_path,
        )
        report = dataio.result_report(result, config_source, scheme=scheme)
    else:
        features = _parse_features(args.features, cohort.covariate_matrix.shape[1])
        config_source["features"] = list(features)
        model = fit_logistic(cohort, features)
        result = iptw_logrank(
            cohort,
            iptw_weights(model, cohort),
            weight_fn=weight_fn,
            alpha=args.alpha,
            direction=args.direction,
            include_path=args.emit_path,
        )
        report = dataio.result_report(result, config_source, model=model.to_dict())
    _emit(report, args.output)
    return EXIT_OK


def _parse_features(text: str, d: int) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not (part.startswith("x") and part[1:].isdigit()):
            raise ConfigError(f"bad feature column {part!r}; use x1,x2,...")
        j = int(part[1:]) - 1
        if not 0 <= j < d:
            raise ConfigError(f"feature column {part!r} outside the dataset's {d} covariates")
        out.append(j)
    if not out:
        raise ConfigError("feature list is empty")
    return tuple(out)


def cmd_experiment(args) -> int:
    config = dataio.load_experiment_config(args.config)
    updates = {}
    for name in ("threads", "method", "alpha", "direction", "theta", "replications"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    try:
        if args.seed is not None:
            updates["scenario"] = dataclasses.replace(config.scenario, seed=args.seed)
        config = dataclasses.replace(config, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_experiment(config)
    summary_path, samples_path = dataio.write_experiment_outputs(result, args.output_dir)
    print(f"wrote {summary_path} and {samples_path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "match": cmd_match,
    "test": cmd_test,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DatasetFormatError, ConfigError, OSError) as exc:
        # an OSError names the file it could not open, read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SeparationError, WeightOverflowError, RankDeficiencyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
