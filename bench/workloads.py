"""Seeded inputs for the three workloads, generated before any timing.

Every workload is a list of passes.  A pass draws one input from each of a
fixed set of equal strata, so every pass costs about the same whatever the
seed, and runs always end on a pass boundary.
"""

from __future__ import annotations

import random

PLAN_BANDS = 16  # equal bands of log10(eps) over [-5, -4]
SWEEP_BANDS = 32  # equal bands of ell over [1, 10^4]
SWEEP_WINDOW = 32  # consecutive ell per op
SWEEP_LMAX = 10**4
CLI_EPS_LOG10 = (-4.0, -1.0)
CLI_CYCLE = 8  # passes in which each slack-taking command visits every stratum


def eps_text(log10_eps: float) -> str:
    """A slack as a three-significant-digit decimal string, e.g. '3.21e-05'."""
    return f"{10.0 ** log10_eps:.2e}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def plan_deep(seed: int, passes: int) -> list[list[dict]]:
    rng = _rng("plan-deep", seed)
    out = []
    for _ in range(passes):
        ops = [
            {"argv": ["plan", "--eps", eps_text(-5 + (band + rng.random()) / PLAN_BANDS),
                      "--format", "structured"]}
            for band in range(PLAN_BANDS)
        ]
        rng.shuffle(ops)
        out.append(ops)
    return out


def verify_sweep(seed: int, passes: int) -> list[list[dict]]:
    rng = _rng("verify-sweep", seed)
    out = []
    for _ in range(passes):
        ops = []
        for band in range(SWEEP_BANDS):
            band_lo = 1 + band * SWEEP_LMAX // SWEEP_BANDS
            band_hi = (band + 1) * SWEEP_LMAX // SWEEP_BANDS
            lo = rng.randint(band_lo, band_hi - SWEEP_WINDOW + 1)
            hi = lo + SWEEP_WINDOW - 1
            ops.append({"lo": lo, "hi": hi, "spot": rng.randint(lo, hi)})
        rng.shuffle(ops)
        out.append(ops)
    return out


def cli_readme(seed: int, passes: int, ell_star) -> list[list[dict]]:
    """The README's commands with seeded shallow arguments.

    log10(eps) over [-4, -1] is cut into CLI_CYCLE strata.  Each of the nine
    slack-taking commands starts at a seeded stratum and moves one stratum
    per pass, so in any CLI_CYCLE consecutive passes it visits each stratum
    once, at a seeded point near the stratum's middle.  The large rationals
    in the output grow like 1/eps, so this keeps the output size of a cycle
    the same for every seed.  ``ell_star(eps_text)`` is the oracle's
    minimal depth; ``certify`` runs at that depth (exit 0) and one below it
    (exit 1).
    """
    rng = _rng("cli-readme", seed)
    shifts = [rng.randrange(CLI_CYCLE) for _ in range(9)]
    lo, hi = CLI_EPS_LOG10

    def fmt() -> list[str]:
        return ["--format", "structured"] if rng.random() < 0.5 else []

    out = []
    for p in range(passes):
        e = []
        for shift in shifts:
            stratum = (p + shift) % CLI_CYCLE
            u = (stratum + 0.4 + 0.2 * rng.random()) / CLI_CYCLE
            e.append(eps_text(lo + (hi - lo) * u))
        argvs = [
            ["plan", "--eps", e[0], "--rule", "all"],
            ["plan", "--eps", e[1], "--rule", "all", "--format", "structured"],
            ["plan", "--eps", e[2], "--rule", "star", *fmt()],
            ["plan", "--eps", e[3], "--rule", "ps", *fmt()],
            ["verify", "--suite", "bounds", "--lmax", "1000"],
            ["verify", "--suite", "logs"],
            ["verify", "--suite", "ordering", "--lmax", "1000"],
            ["verify", "--suite", "expansion"],
            ["table", "--check"],
            ["certify", "--ell", str(ell_star(e[4])), "--eps", e[4]],
            ["certify", "--ell", str(ell_star(e[5]) - 1), "--eps", e[5]],
            ["testbed", "--bundled", "three_cover", "--eps", e[6]],
            ["testbed", "--bundled", "greedy_gap", "--eps", e[7]],
            ["testbed", "--random", "2", "--seed", str(rng.randrange(10**6)),
             "--eps", e[8], "--format", "structured"],
        ]
        rng.shuffle(argvs)
        out.append([{"argv": argv} for argv in argvs])
    return out
