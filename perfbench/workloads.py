"""Seeded request generators for the three workloads.

Every size parameter is drawn by stratified sampling: the range is cut into
as many equal strata as there are requests and each request draws inside
its own stratum.  The seed changes every input value, while the total work
of a request list, and so its run time, stays nearly the same from seed to
seed.  Requests are plain JSON-able dicts; the worker receives nothing
else."""
from __future__ import annotations

import math
import random
from fractions import Fraction

EXACT_FAMILIES = [("paper", 2), ("geometric:1:3/2", 3), ("constant:1:1/3", 2),
                  ("geometric:2:5/4", 3), ("power:1:1", 2), ("paper", 3)]


def strata(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """count floats, the i-th uniform in the i-th of count equal strata of
    [lo, hi), in stratum order."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def int_strata(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """count ints in [lo, hi], one per stratum, in stratum order."""
    return [min(hi, int(v)) for v in strata(rng, count, lo, hi + 1)]


def centres(count: int, lo: int, hi: int) -> list:
    """The centres of count equal strata of [lo, hi], as ints.  Used for the
    few large requests whose cost grows steeply with their size, where a
    draw inside a stratum would move the run time from seed to seed."""
    return [round(lo + (hi - lo) * (i + 0.5) / count) for i in range(count)]


def float_z(rng: random.Random, im_lo: float = 0.2) -> list:
    """A non-real spectral parameter [re, im], either half-plane."""
    return [rng.uniform(-2.0, 2.0), rng.choice((-1, 1)) * rng.uniform(im_lo, 2.0)]


def stratified_z(rng: random.Random, count: int) -> list:
    """count non-real [re, im] values, a Latin hypercube in Re z in [-2, 2]
    and |Im z| in [0.2, 2], half of them in each half-plane."""
    res = strata(rng, count, -2.0, 2.0)
    ims = strata(rng, count, 0.2, 2.0)
    signs = [(-1) ** i for i in range(count)]
    for values in (res, ims, signs):
        rng.shuffle(values)
    return [[re, sign * im] for re, im, sign in zip(res, ims, signs)]


def exact_z(rng: random.Random) -> list:
    """A non-real Gaussian rational [re, im] as fraction strings.  The
    denominators are fixed and the numerators of like size, because the
    digits of every exact value grow with them."""
    numerators = (15, 16, 17, 19, 20)   # prime to 7 and 9, so nothing cancels
    re = Fraction(rng.choice((-1, 1)) * rng.choice(numerators), 7)
    im = Fraction(rng.choice((-1, 1)) * rng.choice(numerators), 9)
    return [str(re), str(im)]


def z_arg(z) -> str:
    """--z value in the form the CLI parses (re,im)."""
    return f"--z={z[0]!r},{z[1]!r}" if isinstance(z[0], float) else f"--z={z[0]},{z[1]}"


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

# Ratio grids.  A geometric request whose float recurrence overflows runs
# until lambda_n leaves the float range, about 710 / ln(r) terms whose
# coefficients are ever larger Fractions, so the cost of one request climbs
# steeply as the ratio r approaches 1 (5/4: about 0.35 s, 33/32: up to 59 s)
# and which of them overflow depends on z in no regular way.  Above 1 the
# grid has step 1/4, and ratio r gets a share of the requests proportional
# to ln r, so that no single ratio decides the run time.
RATIOS_UP = [Fraction(k, 4) for k in range(5, 17)]      # (1, 4]
RATIOS_DOWN = [Fraction(k, 8) for k in range(2, 9)]     # [1/4, 1]
DEGREES = (2, 3, 4)


def _shares(grid, weights, count) -> list:
    """count grid values in grid order, value j taking a share
    weights[j] / sum(weights) of them."""
    total, out, acc, j = sum(weights), [], 0.0, 0
    for i in range(count):
        u = (i + 0.5) / count * total
        while acc + weights[j] < u:
            acc += weights[j]
            j += 1
        out.append(grid[j])
    return out


def _family_draws(rng: random.Random, category: str, count: int) -> list:
    """(spec, d) pairs of one family category.  Ratio and degree run
    through their grids in a balanced cross; base and the constant
    family's values are drawn from the seed."""
    if category == "paper":
        return [("paper", 2)] * count
    if category == "geo_up":
        ratios = _shares(RATIOS_UP, [math.log(r) for r in RATIOS_UP], count)
    elif category == "geo_down":
        ratios = _shares(RATIOS_DOWN, [1] * len(RATIOS_DOWN), count)
    out = []
    for i in range(count):
        d = DEGREES[i % len(DEGREES)]
        base = Fraction(rng.randint(1, 12), 4)
        if category == "constant":
            spec = f"constant:{Fraction(rng.randint(2, 16), 4)}:{Fraction(rng.randint(-8, 8), 4)}"
        else:
            spec = f"geometric:{base}:{ratios[i]}"
        out.append((spec, d))
    return out


# Requests per pass of each (kind, family category).  Whether a geometric
# request with ratio above 1 overflows depends on z in no regular way (about
# 40 % do), and an overflow at a ratio near 1 costs a stream of thousands of
# terms, so the run time varies from seed to seed with the share that
# overflows; 800 short requests keep that variation near 5 %.
VERDICT_MIX = {
    "classify": {"geo_up": 220, "geo_down": 100, "constant": 80, "paper": 120},
    "alpha": {"geo_up": 80, "geo_down": 40, "constant": 30, "paper": 50},
    "cli_classify": {"geo_up": 32, "geo_down": 16, "constant": 12, "paper": 16},
}


def verdicts(rng: random.Random) -> list:
    reqs = []
    for kind, mix in VERDICT_MIX.items():
        for category, count in mix.items():
            draws = _family_draws(rng, category, count)
            k_maxes = int_strata(rng, count, 0, 3)
            for (spec, d), k_max, z in zip(draws, k_maxes, stratified_z(rng, count)):
                if kind == "classify":
                    reqs.append({"op": "classify", "spec": spec, "d": d, "z": z})
                elif kind == "alpha":
                    reqs.append({"op": "alpha", "spec": spec, "d": d, "z": z,
                                 "k_max": k_max})
                else:
                    reqs.append({"op": "cli", "argv": [
                        "classify", "--coeffs", spec, "--d", str(d), z_arg(z)]})
    # the classical determinacy case of the worked example
    reqs.append({"op": "classify", "spec": "paper", "d": 2, "z": [0.0, 0.0],
                 "scale": 1.0})
    reqs.append({"op": "cli", "argv": ["paper-example"]})
    # Long streams, inconclusive after 2 x 100k terms on the seed; they take
    # about half of the run.  With |Im z| above about 1.4 the stall test ends
    # power:1:1 after 128 terms, so |Im z| <= 1.2 keeps their length fixed.
    for spec in ("power:1:1", "power:1:2") * 2:
        z = [rng.uniform(-2.0, 2.0), rng.choice((-1, 1)) * rng.uniform(0.2, 1.2)]
        reqs.append({"op": "classify", "spec": spec, "d": 2, "z": z})
    return reqs


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _cycle(families, i):
    return families[i % len(families)]


def exact(rng: random.Random) -> list:
    reqs = []
    for i, n in enumerate(centres(8, 40, 200)):
        spec, d = _cycle(EXACT_FAMILIES, i)
        reqs.append({"op": "wronskian", "spec": spec, "d": d, "N": n,
                     "z": exact_z(rng)})
    reqs.append({"op": "alternation", "N": 200})
    for i, n_terms in enumerate(int_strata(rng, 24, 10, 40)):
        spec, d = _cycle(EXACT_FAMILIES, i)
        params = {"spec": spec, "d": d, "z": exact_z(rng), "k": i % 4,
                  "n_terms": n_terms}
        reqs.append({"op": "alpha_sq", **params})
        reqs.append({"op": "fvalue_sum", **params})
    for i, n in enumerate(int_strata(rng, 24, 10, 30)):
        spec, _ = _cycle(EXACT_FAMILIES, i)
        reqs.append({"op": "moments", "spec": spec, "d": 2 + i % 2, "N": n,
                     "route": "matrix"})
    for i in range(16):
        spec, _ = _cycle(EXACT_FAMILIES, i)
        d = 2 + i % 2
        n = 4 + (i // 2) % 5 if d == 2 else 3 + (i // 2) % 3
        reqs.append({"op": "moments", "spec": spec, "d": d, "N": n, "route": "tree"})
    for i in range(40):
        spec, d = _cycle(EXACT_FAMILIES, i)
        level = i % 3
        anchor = [rng.randint(1, d) for _ in range(level)]
        depth = level + 2 + (i // 3) % (5 if d == 2 else 3)
        coeffs = [[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(d - 1)]
        coeffs.append([-sum(c[0] for c in coeffs), -sum(c[1] for c in coeffs)])
        reqs.append({"op": "materialize_exact", "spec": spec, "d": d,
                     "z": exact_z(rng), "anchor": anchor, "coeffs": coeffs,
                     "depth": depth})
    for i, n in enumerate(int_strata(rng, 24, 10, 50)):
        spec, d = _cycle(EXACT_FAMILIES, i)
        reqs.append({"op": "cli", "argv": [
            "polys", "--coeffs", spec, "--d", str(d), "--mode", "exact",
            "--n", str(n), z_arg(exact_z(rng))]})
    return reqs


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _zero_sum(rng: random.Random, d: int) -> list:
    """d complex [re, im] coefficients summing to zero."""
    coeffs = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(d - 1)]
    coeffs.append([-sum(c[0] for c in coeffs), -sum(c[1] for c in coeffs)])
    return coeffs


def _address(rng: random.Random, d: int, level: int) -> list:
    return [rng.randint(1, d) for _ in range(level)]


def root_families(rng: random.Random) -> list:
    """(family spec, degree) pairs for the root and spectrum requests, with
    seeded parameters; their recurrences stay inside the float range for
    the sizes below."""
    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), 4)
    return [(f"constant:{q(2, 8)}", 2), ("paper", 3), (f"geometric:{q(1, 8)}:3/2", 2),
            (f"power:{q(1, 8)}:1", 3), (f"constant:{q(2, 8)}:{q(-4, 4)}", 3), ("paper", 2)]


def spectra(rng: random.Random) -> list:
    reqs = []
    families = root_families(rng)
    for (spec, d), n in zip(families, centres(6, 10, 120)):
        reqs.append({"op": "roots", "spec": spec, "d": d, "n": n})
    for i, n_max in enumerate(centres(3, 5, 40)):
        spec, d = families[2 * i]
        reqs.append({"op": "spectrum", "spec": spec, "d": d, "n_max": n_max})
    for i in range(12):
        spec, _ = _cycle(families, i)
        d = 2 + i % 2
        n = 2 + (i // 2) % (6 if d == 2 else 4)
        reqs.append({"op": "eigenpairs", "spec": spec, "d": d, "n": n})
    for i, depth in enumerate((4, 3, 6, 4, 8, 5)):
        spec, _ = _cycle(families, i)
        reqs.append({"op": "dense", "spec": spec, "d": 2 + i % 2, "depth": depth})
    # deficiency/boundary sessions share one context and one alpha table
    for s, depth in enumerate(int_strata(rng, 24, 100, 400)):
        d = 2 + s % 2
        level = 2 + (s // 2) % 3
        session = {"session": s, "spec": "paper", "d": d, "z": float_z(rng, 0.5),
                   "y": _address(rng, d, level), "coeffs": _zero_sum(rng, d)}
        mat_depth = level + (s // 2) % (8 if d == 2 else 4)
        reqs.append({"op": "s_alpha", **session})
        reqs.append({"op": "s_residual", **session, "depth": depth})
        reqs.append({"op": "s_materialize", **session, "depth": mat_depth})
        reqs.append({"op": "s_poisson", **session})
        reqs.append({"op": "s_reproduce", **session})
        reqs.append({"op": "s_project", **session})
    for i in range(4):
        spec, d = families[i]
        reqs.append({"op": "cli", "argv": ["lambda", "--coeffs", spec, "--d", str(d),
                                           "--n", str(2 + i % 3)]})
        d = 2 + i % 2
        y = ".".join(map(str, _address(rng, d, 1 + i % 3)))
        reqs.append({"op": "cli", "argv": ["poisson", "--d", str(d), "--y", y,
                                           z_arg(float_z(rng, 0.5))]})
        anchor = ".".join(map(str, _address(rng, d, i % 3)))
        reqs.append({"op": "cli", "argv": ["deficiency", "--d", str(d),
                                           f"--anchor={anchor}", z_arg(float_z(rng, 0.5)),
                                           "--depth", str(20 + 10 * i)]})
        spec, _ = families[2 + i % 2]
        reqs.append({"op": "cli", "argv": ["oracle", "--coeffs", spec, "--d", "2",
                                           "--n", str(4 + i)]})
    return reqs


GENERATORS = {"verdicts": verdicts, "exact": exact, "spectra": spectra}

# One small request of every kind, run untimed before the timed passes so
# that lazy imports and first calls into numpy/scipy are not timed.
_SESSION = {"session": "warmup", "spec": "paper", "d": 2, "z": [0.5, 1.0], "y": [1, 2],
            "coeffs": [[1.0, 0.0], [-1.0, 0.0]]}
WARMUP = {
    "verdicts": [
        {"op": "classify", "spec": "geometric:1:2", "d": 2, "z": [0.5, 1.0]},
        {"op": "classify", "spec": "geometric:1:1/2", "d": 3, "z": [0.5, 1.0]},
        {"op": "alpha", "spec": "paper", "d": 2, "z": [0.5, 1.0], "k_max": 1},
        {"op": "cli", "argv": ["classify", "--coeffs", "constant:1", "--d", "2"]},
        {"op": "cli", "argv": ["paper-example", "--n-max", "100"]},
    ],
    "exact": [
        {"op": "wronskian", "spec": "paper", "d": 2, "N": 5, "z": ["1/7", "1/9"]},
        {"op": "alternation", "N": 5},
        {"op": "alpha_sq", "spec": "paper", "d": 2, "z": ["1/7", "1/9"], "k": 1, "n_terms": 3},
        {"op": "fvalue_sum", "spec": "paper", "d": 2, "z": ["1/7", "1/9"], "k": 1, "n_terms": 3},
        {"op": "moments", "spec": "paper", "d": 2, "N": 3, "route": "matrix"},
        {"op": "moments", "spec": "paper", "d": 2, "N": 3, "route": "tree"},
        {"op": "materialize_exact", "spec": "paper", "d": 2, "z": ["1/7", "1/9"],
         "anchor": [], "coeffs": [[1, 0], [-1, 0]], "depth": 2},
        {"op": "cli", "argv": ["polys", "--mode", "exact", "--n", "3"]},
    ],
    "spectra": [
        {"op": "roots", "spec": "paper", "d": 2, "n": 4},
        {"op": "spectrum", "spec": "paper", "d": 2, "n_max": 3},
        {"op": "eigenpairs", "spec": "paper", "d": 2, "n": 2},
        {"op": "dense", "spec": "paper", "d": 2, "depth": 2},
        {"op": "s_alpha", **_SESSION},
        {"op": "s_residual", **_SESSION, "depth": 10},
        {"op": "s_materialize", **_SESSION, "depth": 3},
        {"op": "s_poisson", **_SESSION},
        {"op": "s_reproduce", **_SESSION},
        {"op": "s_project", **_SESSION},
        {"op": "cli", "argv": ["lambda", "--n", "2"]},
        {"op": "cli", "argv": ["poisson", "--y", "1"]},
        {"op": "cli", "argv": ["deficiency", "--depth", "10"]},
        {"op": "cli", "argv": ["oracle", "--n", "3"]},
    ],
}


def generate(workload: str, seed: int) -> list:
    """The request list of one pass in a seeded shuffled order, with ids.

    The requests of one deficiency session stay together and in order."""
    rng = random.Random(f"{workload}:{seed}")
    units, sessions = [], {}
    for req in GENERATORS[workload](rng):
        s = req.get("session")
        if s is None:
            units.append([req])
        elif s in sessions:
            sessions[s].append(req)
        else:
            sessions[s] = [req]
            units.append(sessions[s])
    rng.shuffle(units)
    return [{"id": i, **req} for i, req in enumerate(r for unit in units for r in unit)]
