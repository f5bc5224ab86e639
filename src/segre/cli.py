"""Command-line frontend: load manifold files, run computations, emit reports.

Commands
  rank         ranks of the iterated mappings and the stabilization index
  finite-type  the two finite-type routes (bracket closure vs rank) compared
  orbit        annihilator count e and the orbit generators
  verify       the full theorem-verification suite

Exit codes: 0 success, 2 usage, parse or load error (an option out of range
included), 3 inconclusive result (including a rank profile that moves under
order escalation, for every command, and an unstable bracket closure, for
finite-type and verify), 4 theorem-check failure, 5 internal consistency
error.  JSON output is byte-deterministic for a fixed seed and
configuration; the SEGRE_SEED environment variable overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from .config import DEFAULT_SEED, RunConfig
from .errors import (
    ConfigError,
    InconclusiveError,
    InternalConsistencyError,
    ManifoldError,
    SegreError,
)
from .coords import Dims
from .expressions import GenericManifold, ManifoldSpec, load_manifold_file
from .maps import SegreMapping, default_var_cap
from .rank import RankProfile, rank_profile

# segre.orbit and segre.fields are imported by the commands that run them,
# so that ``segre rank`` never compiles them
if TYPE_CHECKING:
    from .fields import LieHullReport
    from .orbit import VerificationReport

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_INCONCLUSIVE = 3
EXIT_CHECK_FAILED = 4
EXIT_INTERNAL = 5

# layout version of every JSON report
SCHEMA = 2

FIXTURES = ("h", "flat", "l4", "c2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segre",
        description="Exact rank dynamics of iterated Segre mappings at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("rank", "ranks of the iterated mappings and the stabilization index"),
        ("finite-type", "compare the bracket and rank routes to finite type"),
        ("orbit", "orbit annihilator count and generators"),
        ("verify", "run the full verification suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group()
        source.add_argument("manifold", nargs="?", help="manifold definition file (JSON)")
        source.add_argument("--fixture", choices=FIXTURES, help="use a bundled fixture instead of a file")
        cmd.add_argument("--kappa", type=int, default=8, help="truncation order (default 8)")
        cmd.add_argument("--jmax", type=int, default=None, help="largest iterate (default d+2)")
        cmd.add_argument("--depth", type=int, default=None, help="bracket depth (default kappa)")
        cmd.add_argument(
            "--degree",
            type=int,
            default=None,
            help="highest degree searched by the orbit kernels (default min(4, kappa/2)); each stops at the first degree that suffices",
        )
        cmd.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help="seed of the random lines that certify each rank (a line misses a larger minor with probability at most order/2^17)",
        )
        cmd.add_argument("--jobs", type=int, default=1, help="parallelism hint; output is independent of it")
        cmd.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def _config_from_args(args) -> RunConfig:
    seed = args.seed
    env_seed = os.environ.get("SEGRE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SEGRE_SEED must be an integer, got {env_seed!r}") from None
    config = RunConfig(
        kappa=args.kappa,
        J_max=args.jmax,
        bracket_depth=args.depth,
        degree_bound=args.degree,
        seed=seed,
    )
    # --jobs is accepted and checked, and changes nothing in a run
    if args.jobs < 1:
        raise ConfigError("jobs must be positive")
    return config


def _load(args, config: RunConfig) -> GenericManifold:
    if args.fixture:
        path = Path(__file__).with_name("fixtures") / f"{args.fixture}.json"
    elif args.manifold:
        path = Path(args.manifold)
    else:
        raise ManifoldError("provide a manifold file or --fixture")
    # --jmax is checked against the file's dimensions before the load parses,
    # solves and checks anything.  The load reads the file again, as
    # ``load_manifold_file``, where ``bench/spans.py`` times every load
    spec = ManifoldSpec.from_file(path)
    dims = Dims(spec.N, spec.d)
    jmax = config.resolve_jmax(dims.d)
    if jmax < dims.d + 2:
        raise ConfigError(f"jmax must be at least d + 2 = {dims.d + 2}")
    cap = default_var_cap(dims)
    if jmax * dims.n > cap:
        raise ConfigError(f"jmax {jmax} needs {jmax * dims.n} iterate variables, cap is {cap}")
    return load_manifold_file(path, config.kappa)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _json_report(manifold: GenericManifold, config: RunConfig, **fields) -> dict:
    """The layout every JSON report shares: the schema, the manifold and the
    run configuration, followed by the command's own ``fields``."""
    return {
        "schema": SCHEMA,
        "manifold": {
            "label": manifold.label,
            "N": manifold.N,
            "d": manifold.d,
            "n": manifold.n,
            "kappa": manifold.kappa,
        },
        "config": {
            "kappa": config.kappa,
            "jmax": config.resolve_jmax(manifold.d),
            "depth": config.resolve_depth(),
            "degree": config.resolve_degree(),
            "seed": config.seed,
        },
        **fields,
    }


def _checks_json(checks: dict) -> dict:
    return {name: {"pass": check.passed, "witness": check.witness} for name, check in checks.items()}


def _report_json(report: VerificationReport, manifold: GenericManifold) -> dict:
    return _json_report(
        manifold,
        report.config,
        ranks=list(report.profile.ranks),
        k0=report.profile.k0,
        stable=report.profile.stable,
        dim_g0=report.lie.dim_g0,
        e=report.orbit.e,
        finite_type={"lie": report.lie.finite_type(), "segre": report.profile.finite_type(report.dims.N)},
        orbit_generators=report.orbit.generator_texts(report.dims),
        mirror={
            "annihilates": True,
            "rank": report.mirror.rank_certificate.rank,
            "generators": report.mirror.generator_texts(report.dims.n),
        },
        checks=_checks_json(report.checks),
    )


def _exit_code(passed: bool, profile: RankProfile, lie: Optional[LieHullReport] = None) -> int:
    """The exit-code policy shared by every command.

    3 when a rank moved under order escalation or, with ``lie`` given, the
    bracket closure did not stabilize, whether or not a check failed: a
    failure read off a moving rank or off dim g(0), which is then only a
    lower bound, is no theorem failure.  Each 3 gives its reasons on
    stderr.  Else 4 when a check failed or the finite-type routes disagree;
    else 0.
    """
    moved = profile.moved_reason()
    reasons = [moved] if moved else []
    if lie is not None and not lie.stable:
        reasons.append(f"dim g(0) still grew at bracket depth {lie.bracket_depth_used}")
    if reasons:
        print(f"inconclusive: {'; '.join(reasons)}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _rank_table(manifold: GenericManifold, profile) -> List[str]:
    lines = [manifold.describe()]
    lines.append("  j   Rk v^j   stable")
    for j, (r, cert) in enumerate(zip(profile.ranks, profile.certificates), start=1):
        lines.append(f"{j:>3}   {r:>6}   {'yes' if cert.stable else 'no':>6}")
    lines.append(f"k0 = {profile.k0}   (bound d+1 = {manifold.d + 1})")
    return lines


def cmd_rank(args, config: RunConfig, manifold: GenericManifold) -> int:
    profile = rank_profile(SegreMapping(manifold), config.resolve_jmax(manifold.d), config.seed)
    if args.json:
        _emit_json(_json_report(manifold, config, ranks=list(profile.ranks), k0=profile.k0, stable=profile.stable))
    else:
        print("\n".join(_rank_table(manifold, profile)))
    return _exit_code(True, profile)


def cmd_finite_type(args, config: RunConfig, manifold: GenericManifold) -> int:
    from .fields import cr_basis, lie_hull_dimension

    profile = rank_profile(SegreMapping(manifold), config.resolve_jmax(manifold.d), config.seed)
    lie = lie_hull_dimension(manifold, cr_basis(manifold), config.resolve_depth())
    finite_lie = lie.finite_type()
    finite_segre = profile.finite_type(manifold.N)
    if args.json:
        _emit_json(
            _json_report(
                manifold,
                config,
                ranks=list(profile.ranks),
                k0=profile.k0,
                stable=profile.stable and lie.stable,
                dim_g0=lie.dim_g0,
                finite_type={"lie": finite_lie, "segre": finite_segre},
            )
        )
    else:
        print(manifold.describe())
        print(f"bracket route: dim g(0) = {lie.dim_g0} of {lie.cap}"
              f" (depth {lie.bracket_depth_used}, stable {'yes' if lie.stable else 'no'})"
              f" -> finite type: {'yes' if finite_lie else 'no'}")
        print(f"rank route:    Rk v^k0 = {profile.rank_at_k0} of N = {manifold.N}"
              f" (k0 = {profile.k0})"
              f" -> finite type: {'yes' if finite_segre else 'no'}")
        print(f"routes agree: {'yes' if finite_lie == finite_segre else 'NO'}")
    return _exit_code(finite_lie == finite_segre, profile, lie)


def cmd_orbit(args, config: RunConfig, manifold: GenericManifold) -> int:
    from .fields import cr_basis, lie_hull_dimension
    from .orbit import moved_ranks_first, orbit_annihilator

    segre = SegreMapping(manifold)
    profile = rank_profile(segre, config.resolve_jmax(manifold.d), config.seed)
    lie = lie_hull_dimension(manifold, cr_basis(manifold), config.resolve_depth())
    with moved_ranks_first(profile):
        orbit = orbit_annihilator(segre, profile, config.resolve_degree(), lie.dim_g0 if lie.stable else None)
    if args.json:
        _emit_json(
            _json_report(
                manifold,
                config,
                e=orbit.e,
                dim_O=orbit.dim_O,
                orbit_generators=orbit.generator_texts(manifold.dims),
                checks=_checks_json(orbit.checks),
            )
        )
    else:
        print(manifold.describe())
        print(f"e = {orbit.e}   dim O = {orbit.dim_O}")
        if orbit.f_generators:
            for index, text in enumerate(orbit.generator_texts(manifold.dims), start=1):
                print(f"f{index} = {text}")
        else:
            print("no annihilators: the intrinsic complexification is the whole space")
        for name, check in orbit.checks.items():
            print(f"[{'pass' if check.passed else 'FAIL'}] {name}: {check.witness}")
    return _exit_code(all(check.passed for check in orbit.checks.values()), profile)


def cmd_verify(args, config: RunConfig, manifold: GenericManifold) -> int:
    from .orbit import verify_all

    report = verify_all(manifold, config)
    if args.json:
        _emit_json(_report_json(report, manifold))
    else:
        print(manifold.describe())
        ranks = ", ".join(str(r) for r in report.profile.ranks)
        print(f"ranks = ({ranks})   k0 = {report.profile.k0}   dim g(0) = {report.lie.dim_g0}   e = {report.orbit.e}")
        for name in sorted(report.checks):
            check = report.checks[name]
            print(f"[{'pass' if check.passed else 'FAIL'}] {name}: {check.witness}")
        print(f"result: {'all checks passed' if report.passed else 'CHECKS FAILED'}")
    return _exit_code(report.passed, report.profile, report.lie)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "rank": cmd_rank,
        "finite-type": cmd_finite_type,
        "orbit": cmd_orbit,
        "verify": cmd_verify,
    }
    try:
        config = _config_from_args(args)
        return handlers[args.command](args, config, _load(args, config))
    except (ManifoldError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SegreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
