"""Correctness checks on emitted experiment outputs that hold for any seed.

The runners' own `verdict` is not used: `stationarity` applies alpha=0.01 to
every p-value of every seed, and `freepath` asks the KS distance to fall
across radii, so a correct program fails those at a fixed rate.  Each check
below has a false-alarm rate of about 1e-4 or less per run.  A check
returns the list of problems it found; an empty list means the output
passed.
"""
import hashlib
import json
import math
import os

KS_CRITICAL = 2.2       # Kolmogorov tail: P(sqrt(n) D_n > 2.2) ~ 1.3e-4
Z_BINOMIAL = 5.0        # standard errors allowed between two proportions
FAMILY_ALPHA = 1e-3     # stationarity: Bonferroni over every p-value


def check_freepath(summary):
    row = summary["per_r"][-1]            # the finest radius
    n = row["n"]
    problems = []
    crit = KS_CRITICAL / math.sqrt(n)
    if not row["ks"] < crit:
        problems.append(f"KS {row['ks']:.4g} at r={row['r']:g} is not below "
                        f"{crit:.4g} = {KS_CRITICAL}/sqrt({n})")
    p = row["limit_escape"]
    bound = Z_BINOMIAL * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
    if not abs(row["escape_fraction"] - p) <= bound:
        problems.append(f"escape fraction {row['escape_fraction']:.4g} is "
                        f"further than {bound:.3g} from the limit {p:.4g}")
    return problems


def check_stationarity(summary):
    rows = summary["per_seed"]
    tests = ("ks_xi", "ks_vplus", "ks_v", "ks_cell", "ks_split")
    level = FAMILY_ALPHA / (len(rows) * len(tests))
    worst = min((row[t][1], row["seed"], t) for row in rows for t in tests)
    if not worst[0] > level:
        return [f"p-value {worst[0]:.3g} of {worst[2]} at seed {worst[1]} "
                f"is not above the Bonferroni level {level:.3g}"]
    return []


def check_flight(summary):
    n = summary["particles"]
    counts = summary["n_collision_counts"]
    problems = []
    if sum(counts) != n:
        problems.append(f"collision counts sum to {sum(counts)}, not {n}")
    frac, oracle = summary["n0_fraction"], summary["n0_fraction_oracle"]
    if frac != counts[0] / n:
        problems.append("n0_fraction does not match the n=0 count")
    # the oracle averages survival probabilities over an independent sample
    # of at most 20000 starts; its variance is at most that of a proportion
    p = min(max(oracle, 1.0 / n), 1.0 - 1.0 / n)
    se = math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / min(n, 20000)))
    if not abs(frac - oracle) <= Z_BINOMIAL * se:
        problems.append(f"n0 fraction {frac:.4g} is further than "
                        f"{Z_BINOMIAL} standard errors ({se:.3g}) from the "
                        f"quadrature oracle {oracle:.4g}")
    return problems


CHECKS = {"freepath": check_freepath, "stationarity": check_stationarity,
          "flight": check_flight}


def check_outputs(paths):
    """Check an emitted file set; return (sha256 per file name, problems)."""
    digests, summary, problems = {}, None, []
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        digests[os.path.basename(path)] = hashlib.sha256(blob).hexdigest()
        if path.endswith("_summary.json"):
            try:
                summary = json.loads(blob)
            except ValueError as exc:
                problems.append(f"{os.path.basename(path)}: {exc}")
    if summary is None:
        return digests, problems or ["no readable summary was emitted"]
    try:
        problems += CHECKS[summary["experiment"]](summary)
    except (KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"malformed summary: {exc!r}")
    return digests, problems
