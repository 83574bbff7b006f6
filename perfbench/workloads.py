"""Workload definitions: what one operation runs (in the child process)
and how its output is checked (in the parent).

An operation is one fresh process that drives the ``simomac`` CLI entry
point or the public library functions once.  Every operation of a run
uses the workload seed, so the reports of one run must be identical.
"""

import json
import math

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is for
# the smoke test.  Each full size takes about 3-5 s on a 2-core x86 box.
SIZES = {
    "full": {
        "bounds_long_block": {"trials": 10_000},
        "bounds_short_block": {"trials": 100_000},
        "validity_oracles": {"trials": 50_000, "mixture_samples": 3_000, "knn_samples": 10_000},
        "region_optimizer": {},
    },
    "tiny": {
        "bounds_long_block": {"trials": 1_000},
        "bounds_short_block": {"trials": 2_000},
        "validity_oracles": {"trials": 4_000, "mixture_samples": 200, "knn_samples": 1_000},
        "region_optimizer": {},
    },
}

BOUNDS_ARGS = {
    "bounds_long_block": ["--T", "32", "--N", "8", "--P-dB", "20,30"],
    "bounds_short_block": ["--T", "3", "--N", "4", "--P-dB", "20,30,40"],
}

VALIDITY_T, VALIDITY_N = 4, 2
VALIDITY_ORACLE_DB = (10, 30)
VALIDITY_SLOPE_DB = (30, 40)  # test_06's slope check on the isotropic bound
EXPONENT_PROFILE = [1.0, 0.5, 0.25, 0.0]

# A redrawn Monte-Carlo value must lie within this many combined standard
# errors, sqrt(se^2 + se_ref^2), of the stored reference.  The reported
# errors match the seed-to-seed spread within 1.1x for every referenced
# value, so 6 keeps a false alarm below 1e-7 per value while a bias of a
# few tenths of a bit still fails.
REF_SIGMAS = 6.0


def cli_argv(workload, seed, size):
    """argv for ``simomac.cli.main``, or None for a library workload."""
    if workload in BOUNDS_ARGS:
        return ["bounds", *BOUNDS_ARGS[workload], "--trials", str(size["trials"]),
                "--seed", str(seed)]
    if workload == "region_optimizer":
        return ["verify", "--suite", "optimizer", "--seed", str(seed)]
    return None


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def run_validity_oracles(seed, size):
    """test_06's comparisons at T=4, N=2: the single-user bound against the
    closed-form mixture MI (isotropic input) and against the k-NN plug-in
    MI (exponent-profile input), plus the isotropic bound at 40 dB for the
    30-40 dB slope.  Returns plain floats keyed by P in dB."""
    from simomac.channel import ChannelConfig, InputDistribution
    from simomac.converse import (
        duality_bound_single_user,
        isotropic_mixture_mi_estimate,
        mutual_information_lower_estimate,
    )

    t, n = VALIDITY_T, VALIDITY_N
    points = {}
    for p_db in sorted(set(VALIDITY_ORACLE_DB) | set(VALIDITY_SLOPE_DB)):
        p = 10.0 ** (p_db / 10.0)
        cfg = ChannelConfig(T=t, N=n, P=p, trials=size["trials"], seed=seed)
        iso = InputDistribution(kind="isotropic_peak", T=t, P=p)
        rep = duality_bound_single_user(iso, cfg)
        entry = {"iso_bound": [rep.value, rep.std_error]}
        if p_db in VALIDITY_ORACLE_DB:
            mi, se = isotropic_mixture_mi_estimate(cfg, trials=size["mixture_samples"])
            entry["mixture_mi"] = [float(mi), float(se)]
            prof = InputDistribution(kind="exponent_profile_peak", T=t, P=p,
                                     params={"exponents": EXPONENT_PROFILE})
            rp = duality_bound_single_user(prof, cfg)
            entry["profile_bound"] = [rp.value, rp.std_error]
            entry["knn_mi"] = mutual_information_lower_estimate(
                prof, cfg, max_knn_samples=size["knn_samples"])
        points[str(p_db)] = entry
    return {"points": points}


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_report(text):
    """JSON report from the CLI; NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _near_reference(pair, ref):
    """pair and ref are [value, std_error]."""
    if not (isinstance(pair, list) and len(pair) == 2 and _finite(*pair)):
        return False
    return abs(pair[0] - ref[0]) <= REF_SIGMAS * math.hypot(pair[1], ref[1])


def bounds_values(report):
    """Flatten a ``simomac bounds`` report to {item: [value, std_error]}."""
    out = {}
    for point in report["points"]:
        tag = f"P{point['P_dB']:g}"
        for key in ("single_user_upper", "mac_user1_upper"):
            if key in point:
                out[f"{tag}/{key}"] = [point[key]["value"], point[key]["std_error"]]
        if "single_user_training" in point:
            st = point["single_user_training"]
            out[f"{tag}/single_user_training"] = [st["rate"], st["std_error"]]
        if "mac_training" in point:
            mt = point["mac_training"]
            out[f"{tag}/mac_training1"] = [mt["rate1"], mt["std_error1"]]
            out[f"{tag}/mac_training2"] = [mt["rate2"], mt["std_error2"]]
    return out


def validity_values(result):
    """{item: [value, std_error]} for the referenced validity values."""
    out = {}
    for p_db, entry in result["points"].items():
        for key in ("iso_bound", "mixture_mi"):
            if key in entry:
                out[f"P{p_db}/{key}"] = entry[key]
    return out


def expected_items(workload, ref):
    """Names of the checks one operation must pass."""
    if workload == "region_optimizer":
        return ["exit_0_all_passed"] + [f"check/{c}" for c in ref["checks"]]
    items = [f"ref/{k}" for k in sorted(ref["values"])]
    if workload == "validity_oracles":
        items.append("completed")
        for p_db in VALIDITY_ORACLE_DB:
            items += [f"P{p_db}/iso_bound>=mixture_mi", f"P{p_db}/profile_bound>=knn_mi"]
        items.append("slope_{}_{}<=1-1/T+0.05".format(*VALIDITY_SLOPE_DB))
    else:
        items += ["exit_0_json_finite", "no_warnings"]
    return items


def check_operation(workload, op, ref):
    """{item: passed} for one operation; ``op`` is the child's result
    (None when the child produced none).  A malformed or incomplete report
    fails every item not yet passed."""
    passed = dict.fromkeys(expected_items(workload, ref), False)
    if op is None or op.get("error"):
        return passed
    try:
        _fill_checks(workload, op, ref, passed)
    except (ValueError, KeyError, TypeError):
        pass
    return passed


def _fill_checks(workload, op, ref, passed):
    if workload == "region_optimizer":
        report = parse_report(op["stdout"])
        passed["exit_0_all_passed"] = op["rc"] == 0 and report["all_passed"] is True
        for chk in report["checks"]:
            key = f"check/{chk['check']}"
            if key in passed:
                passed[key] = chk["passed"] is True
        return
    if workload == "validity_oracles":
        values = validity_values(op["result"])
        passed["completed"] = True
        _check_validity(op["result"], passed)
    else:
        report = parse_report(op["stdout"])
        passed["exit_0_json_finite"] = op["rc"] == 0
        passed["no_warnings"] = report["warnings"] == []
        values = bounds_values(report)
    for key, ref_pair in ref["values"].items():
        passed[f"ref/{key}"] = key in values and _near_reference(values[key], ref_pair)


def _check_validity(result, passed):
    """test_06's inequalities, with its multiples of the standard error."""
    pts = result["points"]
    for p_db in VALIDITY_ORACLE_DB:
        e = pts[str(p_db)]
        (bound, bse), (mi, mse) = e["iso_bound"], e["mixture_mi"]
        (pbound, pbse), knn = e["profile_bound"], e["knn_mi"]
        passed[f"P{p_db}/iso_bound>=mixture_mi"] = (
            _finite(bound, bse, mi, mse) and bound >= mi - 3 * (mse + bse))
        passed[f"P{p_db}/profile_bound>=knn_mi"] = (
            _finite(pbound, pbse, knn) and pbound >= knn - 3 * pbse)
    lo, hi = VALIDITY_SLOPE_DB
    v_lo, v_hi = pts[str(lo)]["iso_bound"][0], pts[str(hi)]["iso_bound"][0]
    slope = (v_hi - v_lo) / ((hi - lo) / 10.0 * math.log2(10.0))
    passed["slope_{}_{}<=1-1/T+0.05".format(lo, hi)] = (
        _finite(slope) and slope <= (VALIDITY_T - 1) / VALIDITY_T + 0.05)


def largest_se(workload, op):
    """Largest Monte-Carlo standard error the operation reports, in bits.

    validity_oracles counts the isotropic comparison only: the
    exponent-profile bound's reported error follows an unstable aux fit
    (beta barely above 1 at 30 dB), not the sample size.  region_optimizer
    has no Monte Carlo; its stated error bar is the grid oracle's slack.
    """
    if workload == "region_optimizer":
        return max(c["slack"] for c in parse_report(op["stdout"])["checks"])
    if workload == "validity_oracles":
        values = validity_values(op["result"])
    else:
        values = bounds_values(parse_report(op["stdout"]))
    return max(se for _, se in values.values())


def reference_entry(workload, op):
    """Reference record made from one passing operation (make_reference.py)."""
    if workload == "region_optimizer":
        return {"checks": [c["check"] for c in parse_report(op["stdout"])["checks"]]}
    if workload == "validity_oracles":
        return {"values": validity_values(op["result"])}
    return {"values": bounds_values(parse_report(op["stdout"]))}


def fingerprint(workload, op):
    """What must repeat exactly between operations of one run."""
    if op is None or op.get("error"):
        return None
    if workload == "validity_oracles":
        return json.dumps(op["result"], sort_keys=True)
    return op["stdout"]
