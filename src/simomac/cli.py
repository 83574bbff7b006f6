"""Command-line front end: exact region reports, Monte-Carlo bound
experiments, property-suite verification, and plotter-agnostic CSV
export.

Configuration: sectioned key=value file (INI), path from --config or the
SIMOMAC_CONFIG environment variable; command-line flags override file
values.  Every JSON report embeds the fully resolved configuration, the
seed, the package version and the numpy and scipy versions, and is
byte-identical across reruns with the same seed.

Exit codes: 0 success, 1 property failure, 2 usage error: bad flags
(argparse's usage message), or a missing or malformed config file, a
negative seed or a typed SimomacError from the library (one ``error:``
line on stderr).  Neither prints a traceback.
"""

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import scipy  # the top-level package only, for its version

from . import __version__, lemmas, region
from .auxdist import remainder_slack_bits
from .channel import FADING_KINDS, ChannelConfig, InputDistribution, one_or_all
from .converse import duality_bound_mac_user1, duality_bounds
from .errors import InvalidRegime, RegimeUnsupported, SimomacError
from .training import mac_training_rates, single_user_training_rate


def _region_payload(reg):
    frac = region.frac_str
    return {
        "halfspaces": [[frac(a1), frac(a2), frac(b)] for a1, a2, b in reg.halfspaces],
        "vertices": [[frac(d1), frac(d2)] for d1, d2 in reg.vertices],
    }


def _emit(report):
    print(json.dumps(report, sort_keys=True, indent=2))


def _base_report(cmd, cfg_dict):
    return {"version": __version__, "command": cmd, "config": cfg_dict,
            "libraries": {"numpy": np.__version__, "scipy": scipy.__version__}}


def _usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _load_config(path):
    cp = configparser.ConfigParser()
    if path:
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, UnicodeError, configparser.Error) as exc:
            _usage_error(f"config file {path}: {exc}".splitlines()[0])
    return cp


def _cfg_get(cp, section, key, fallback=None):
    if cp.has_option(section, key):
        return cp.get(section, key)
    if cp.has_option("common", key):
        return cp.get("common", key)
    return fallback


def _cfg_choice(cp, section, key, choices, fallback):
    # argparse checks choices on command-line values only, not on defaults
    raw = _cfg_get(cp, section, key, fallback)
    if raw not in choices:
        _usage_error(f"config value {key} = {raw!r} is not one of {', '.join(choices)}")
    return raw


def _cfg_int(cp, section, key, fallback):
    raw = _cfg_get(cp, section, key, fallback)
    try:
        return int(raw)
    except ValueError:
        _usage_error(f"config value {key} = {raw!r} is not an integer")


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def cmd_region(args):
    outer = region.outer_region(args.T, args.N)
    inner = region.inner_region(args.T, args.N)
    equal = region.regions_equal(outer, inner)
    if args.format == "csv":
        sys.stdout.write(region.polygon_export(outer))
        return 0
    report = _base_report("region", {"T": args.T, "N": args.N, "format": args.format})
    report.update(
        {
            "outer": _region_payload(outer),
            "inner": _region_payload(inner),
            "equal": bool(equal),
            "polygon_csv": region.polygon_export(outer),
        }
    )
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _power(p_db):
    """Linear power of a dB value; inf beyond the float range, which
    ChannelConfig then rejects like any other power it cannot handle."""
    try:
        return 10.0 ** (p_db / 10.0)
    except OverflowError:
        return float("inf")


def cmd_bounds(args):
    p_dbs = args.P_dB
    # the genie regime of the MAC bound, which follows (T, N)
    f_bracket = region.regime_objective(args.T, args.N) == "f_exponent"
    cfg_dict = {
        "T": args.T,
        "N": args.N,
        "P_dB": p_dbs,
        "trials": args.trials,
        "seed": args.seed,
        "fading": args.fading,
        "regime": "T_ge_N_plus_1" if f_bracket else "T_le_N",
    }
    report = _base_report("bounds", cfg_dict)
    cfgs = [ChannelConfig(T=args.T, N=args.N, P=_power(p_db), fading_kind=args.fading,
                          trials=args.trials, seed=args.seed) for p_db in p_dbs]
    cfg, powers = cfgs[0], [c.P for c in cfgs]
    # the fit and evaluation passes draw each trial chunk once for both bounds and
    # the whole power grid
    iso = InputDistribution(kind="isotropic_peak", T=args.T, P=cfg.P)
    single, mac = duality_bounds(iso, iso, cfg, powers=powers)
    # a training scheme that does not cover (T, N, fading) is not reported
    try:
        su_training = single_user_training_rate(cfg, powers=powers)
    except RegimeUnsupported:
        su_training = None
    try:
        mac_training = mac_training_rates(cfg, powers=powers)
    except RegimeUnsupported:
        mac_training = None
    per_p = []
    warnings = []
    for k, p_db in enumerate(p_dbs):
        entry = {"P_dB": p_db, "slack_bits": remainder_slack_bits(powers[k])}
        # each bound fails on its own: a failed single-user bound keeps a finite MAC bound
        for key, reports in (("single_user_upper", single), ("mac_user1_upper", mac)):
            try:
                entry[key] = asdict(one_or_all([reports[k]], None))
            except InvalidRegime as exc:
                warnings.append(f"P={p_db} dB: {exc}")
        if su_training is not None:
            entry["single_user_training"] = asdict(su_training[k])
        if mac_training is not None:
            r1, r2 = mac_training[k]
            entry["mac_training"] = {
                "rate1": r1.rate, "rate2": r2.rate,
                "std_error1": r1.std_error, "std_error2": r2.std_error,
            }
        per_p.append(entry)
    slopes = []
    bounds = ("single_user_upper", "mac_user1_upper")
    for lo, hi in zip(per_p, per_p[1:]):
        if all(k in pt for pt in (lo, hi) for k in bounds):
            dx = (hi["P_dB"] - lo["P_dB"]) / 10.0 * np.log2(10.0)
            slopes.append({"from_dB": lo["P_dB"], "to_dB": hi["P_dB"],
                           **{k: (hi[k]["value"] - lo[k]["value"]) / dx for k in bounds}})
    report.update({"points": per_p, "slopes": slopes, "warnings": warnings})
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_region():
    checks = []
    for t in range(1, 17):
        for n in range(1, 9):
            eq = region.regions_equal(region.outer_region(t, n), region.inner_region(t, n))
            checks.append({"check": f"region_equal_T{t}_N{n}", "margin": 0.0 if eq else 1.0,
                           "slack": 0.0, "passed": bool(eq)})
    return checks


def _verify_optimizer():
    checks = []
    for t in range(3, 17):
        for n in range(2, 9):
            lams = [(Fraction(1), Fraction(1, t - 2)), (Fraction(1, t - 2), Fraction(1)),
                    (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                    (Fraction(1), Fraction(1))]
            objective = region.regime_objective(t, n)
            outer = region.outer_region(t, n)
            ok = True
            for l1, l2 in lams:
                sup, _ = region.weighted_sum_dof_sup(l1, l2, t, n, objective)
                if sup != region.max_weighted_dof(outer, l1, l2):
                    ok = False
            checks.append({"check": f"optimizer_tight_T{t}_N{n}", "margin": 0.0 if ok else 1.0,
                           "slack": 0.0, "passed": ok})
    # oracle spot checks (grid is slow; representative subset)
    for t, n in [(4, 2), (5, 3), (3, 4)]:
        objective = region.regime_objective(t, n)
        sup, _ = region.weighted_sum_dof_sup(Fraction(1), Fraction(1), t, n, objective)
        grid, _ = region.grid_oracle_sup(Fraction(1), Fraction(1), t, n, objective)
        tol = region.grid_oracle_tolerance(t, n)
        margin = float(sup) - float(grid)
        checks.append({"check": f"grid_oracle_T{t}_N{n}", "margin": margin, "slack": tol,
                       "passed": 0.0 <= margin <= tol})
    return checks


def _verify_props(seed):
    """The Proposition inequalities at T=4, N=2 (single-user and T >= N+1
    MAC genies) and T=2, N=2 (the T <= N genie, every branch of which must
    be seen), for both fadings at 20 and 30 dB, 100k trials: each bound
    value - analytic right-hand side <= slack + 3 SE."""
    checks = []
    p_dbs = (20, 30)
    powers = [_power(p_db) for p_db in p_dbs]
    for kind in FADING_KINDS:
        cfg = ChannelConfig(T=4, N=2, P=powers[0], fading_kind=kind, trials=100_000, seed=seed)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=cfg.P)
        single, mac = duality_bounds(iso, iso, cfg, powers=powers)
        profile = InputDistribution(kind="exponent_profile_peak", T=2, P=cfg.P,
                                    params={"exponents": [0.5, 0.0]})
        low = duality_bound_mac_user1(replace(iso, T=2), profile, replace(cfg, T=2), powers=powers)
        for p_db, p, *reps in zip(p_dbs, powers, single, mac, low):
            slack, at = remainder_slack_bits(p), f"{kind}_{p_db}dB"
            reps = [one_or_all([rep], None) for rep in reps]
            fewest = min(reps[2].branch_counts.values())
            checks.append({"check": f"prop_mac_low_t_all_branches_{at}",
                           "margin": float(fewest), "slack": 0.0, "passed": fewest > 0})
            for name, rep in zip(("single_user", "mac_high_t", "mac_low_t"), reps):
                gap = rep.value - rep.analytic_rhs_value
                checks.append({"check": f"prop_{name}_{at}", "margin": float(slack - gap),
                               "slack": slack + 3 * rep.std_error,
                               "passed": bool(gap <= slack + 3 * rep.std_error)})
    return checks


def cmd_verify(args):
    suites = {
        "lemmas": lambda: lemmas.run_all(seed=args.seed),
        "region": _verify_region,
        "optimizer": _verify_optimizer,
        "props": lambda: _verify_props(args.seed),
    }
    checks = suites[args.suite]()
    report = _base_report("verify", {"suite": args.suite, "seed": args.seed})
    report["checks"] = checks
    report["all_passed"] = all(c["passed"] for c in checks)
    _emit(report)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# export-plot
# ---------------------------------------------------------------------------

def cmd_export_plot(args):
    outer = region.outer_region(args.T, args.N)
    inner = region.inner_region(args.T, args.N)
    for name, reg in (("outer", outer), ("inner", inner)):
        path = f"{args.out}_{name}.csv"
        try:
            with open(path, "w") as fh:
                fh.write(region.polygon_export(reg))
        except OSError as exc:
            _usage_error(f"cannot write {path}: {exc.strerror}")
        print(path)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(s):
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _db_list(s):
    vals = [float(v) for v in s.split(",")]
    if not np.all(np.isfinite(vals)):
        raise ValueError(s)
    if len(set(vals)) < len(vals):
        # a zero-width step would make the slope between them 0/0
        raise argparse.ArgumentTypeError(f"repeated power in {s!r}")
    return vals


def build_parser(cp):
    parser = argparse.ArgumentParser(prog="simomac")
    parser.add_argument("--config", default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("region", help="exact DoF region report")
    pr.add_argument("--T", type=_positive_int, required=True)
    pr.add_argument("--N", type=_positive_int, required=True)
    formats = ("json", "csv")
    pr.add_argument("--format", choices=formats,
                    default=_cfg_choice(cp, "region", "format", formats, "json"))
    pr.set_defaults(func=cmd_region)

    pb = sub.add_parser("bounds", help="Monte-Carlo bound experiments")
    pb.add_argument("--T", type=_positive_int, required=True)
    pb.add_argument("--N", type=_positive_int, required=True)
    pb.add_argument("--P-dB", dest="P_dB", type=_db_list, required=True,
                    help="comma-separated dB list")
    pb.add_argument("--trials", type=_positive_int,
                    default=_cfg_int(cp, "bounds", "trials", 100_000))
    pb.add_argument("--seed", type=int, default=_cfg_int(cp, "bounds", "seed", 0))
    pb.add_argument("--fading", choices=FADING_KINDS,
                    default=_cfg_choice(cp, "bounds", "fading", FADING_KINDS,
                                        "iid_complex_gaussian"))
    pb.set_defaults(func=cmd_bounds)

    pv = sub.add_parser("verify", help="property suites")
    pv.add_argument("--suite", choices=("lemmas", "props", "region", "optimizer"),
                    required=True)
    pv.add_argument("--seed", type=int, default=_cfg_int(cp, "verify", "seed", 0))
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("export-plot", help="write region polygon CSVs")
    pe.add_argument("--T", type=_positive_int, required=True)
    pe.add_argument("--N", type=_positive_int, required=True)
    pe.add_argument("--out", required=True, help="output path prefix")
    pe.set_defaults(func=cmd_export_plot)
    return parser


def main(argv=None):
    # argparse takes a value such as "-10,30" for an option string, so bind
    # each dB list to its flag before parsing
    argv, raw = [], list(sys.argv[1:] if argv is None else argv)
    for arg in raw:
        if argv and argv[-1] == "--P-dB":
            argv[-1] = f"--P-dB={arg}"
        else:
            argv.append(arg)
    # config path must be known before defaults are resolved
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=os.environ.get("SIMOMAC_CONFIG"))
    known, _ = pre.parse_known_args(argv)
    cp = _load_config(known.config)
    parser = build_parser(cp)
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # from the flag or the config file
        _usage_error(f"seed must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except SimomacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
