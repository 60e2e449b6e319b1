"""Bitwise parity of LogitMarket.evaluate and PureCharMarket.evaluate, and of
the instance makers, between two source trees.

Draws seeded random logit markets (J 1-15, M 1-5, n 1-399) and random
pure-characteristics markets of six kinds (generic normal slopes, slopes
tied on a 0.5 grid, slopes one ulp apart, coarse integer grids where
equal-slope lines coincide, grids with -0.0 slopes, and intercepts near
+-1e308, whose differences overflow), evaluates each at
x*, x* + N(0,1), 1e6 x*, 0 and x* - 8, with and without the Jacobian, in each
tree, and compares shares, welfare and Jacobian byte for byte. Each
pure-characteristics evaluation is then repeated after evaluating a twin
market of the same shape (products and consumers in reverse order), so that
working arrays carried over from one call to the next show as differences,
and the twin is evaluated once more before that evaluation's outputs are read,
so that a welfare deferred to its first read but computed from working arrays
shows as well.
The non-finite pass evaluates every market at x* and at x* + 1e3 (for logit,
inside and past its exp table's room) with one coordinate set to NaN, +inf or
-inf in turn, with and without the Jacobian; each tree's exception class and
message, or its outputs, must match byte for byte, whatever --ulps says.
The maker pass calls make_logit_instance and make_purechar_instance on seeded
sizes (J 1-15, M from the family's smallest to 5, n 1-399), with integer and
SeedSequence seeds in turn, and compares z, the draws, beta, x* and sigma*
byte for byte. Each tree is imported in its own subprocess. Run it as

    python tools/evaluator_parity.py OLD_SRC NEW_SRC [--per-kind 120] [--ulps 0]

where OLD_SRC and NEW_SRC are directories holding a `demandinv` package and
--per-kind is the number of markets of each kind (logit is one kind) and of
made instances per family. It prints one line per family and pass, with the
number of evaluations or made instances that differ bitwise and the largest
gap in units in the last place per output. It exits 1 when a gap exceeds
--ulps, or when one tree raises where the other does not, raises another
error, or gives another shape, and when a non-finite evaluation differs at
all. Every distinct pair of doubles is at least 1 ulp apart, +0.0 and -0.0
included, so the default --ulps 0 fails exactly when an output differs in
any bit. The logit evaluator's move onto its
exp(z nu') table measured at most 10 ulps over the default markets (welfare
3, shares 6, Jacobian 10, the maker's sigma* 5), so `--ulps 32` was its stated
bound; its shifted fallback's move onto the table's arithmetic measured 1.
The pure-characteristics bounds' move onto the cached crossing table changed
3,896 of 14,400 evaluations, at most welfare 61,725, shares 1,839 and
Jacobian 19,913 ulps (the maker's sigma* 391), so `--ulps 65536` is its
stated bound. Each of the three largest lies in a deep tail at x* - 8 or on a
Jacobian entry far below the largest: the welfare gap is a value of 4.85e-90
whose error against a 40-digit reference fell from 1.1e-11 to 1.6e-14
relative. The "huge" kind's evaluations did not change.
The logit evaluator's fused max|x| guard and finiteness check, with the
contraction's direct ufunc reductions and ModelEvaluation's sum-first share
check, changed no evaluation and no maker output at --ulps 0, and every
non-finite evaluation raised the same InvalidInputError in both trees.
Forming the pure-characteristics densities and slope steps on every call, and
each crossing block once at construction, changed no evaluation and no maker
output at --ulps 0.
"""

from __future__ import annotations

import argparse
import pickle
import subprocess
import sys

KINDS = ("generic", "grid", "ulp", "coincident", "signed_zero", "huge")
# Each family's smallest attribute count M and its draws field.
MAKERS = {"logit": (1, "nu"), "purechar": (2, "nu_rest")}


def draw_logit(rng):
    """A random LogitMarket with J 1-15, M 1-5 and n 1-399, and its x*."""
    from demandinv import LogitMarket

    J = int(rng.integers(1, 16))
    M = int(rng.integers(1, 6))
    n = int(rng.integers(1, 400))
    z = rng.standard_normal((J, M))
    nu = rng.standard_normal((n, M))
    beta = rng.random(M)
    return LogitMarket(z=z, nu=nu, beta=beta), z @ beta


def draw_purechar(kind: str, rng):
    """A random PureCharMarket of the given kind, and its x*."""
    import numpy as np

    from demandinv import PureCharMarket

    J = int(rng.integers(1, 16))
    M = int(rng.integers(2, 5))
    n = int(rng.integers(1, 200))
    z = rng.standard_normal((J, M))
    nu_rest = rng.standard_normal((n, M - 1))
    if kind == "grid":
        z[:, 0] = 0.5 * rng.integers(-4, 5, J)
    elif kind == "ulp":
        base = rng.choice([-2.0, -0.5, 0.5, 1.0])
        ulps = rng.integers(-1, 2, J)
        z[:, 0] = [np.nextafter(base, np.copysign(np.inf, u)) if u else base for u in ulps]
    elif kind in ("coincident", "signed_zero"):
        z = rng.integers(-2, 3, (J, M)).astype(float)
        nu_rest = rng.integers(-1, 2, (n, M - 1)).astype(float)
        if kind == "signed_zero":
            z[:, 0] = np.where(rng.random(J) < 0.5, -0.0, z[:, 0])
    elif kind == "huge":
        z[:, 1] = rng.choice([-1.0, 1.0], J) * rng.uniform(0.5, 1.0, J) * 1e308
        nu_rest[:, 0] = rng.uniform(-1.0, 1.0, n)
    beta = np.concatenate([[1.0], rng.random(M - 1)])
    if kind == "huge":
        beta[1] = 0.0  # x* leaves out the intercepts' huge part
    if kind in ("coincident", "signed_zero"):
        # integer utilities too, so lines also coincide at x*
        beta[1:] = rng.integers(0, 2, M - 1)
    return PureCharMarket(z=z, nu_rest=nu_rest, beta=beta), z @ beta


def made(family: str, rng, k: int) -> tuple:
    """The bytes of make_<family>_instance's output at a random size, with an
    integer seed for even k and a SeedSequence for odd k, or its exception."""
    import numpy as np

    import demandinv

    min_M, draws = MAKERS[family]
    J, M, n = int(rng.integers(1, 16)), int(rng.integers(min_M, 6)), int(rng.integers(1, 400))
    seed = int(rng.integers(2**32))
    seed = np.random.SeedSequence([seed, k]) if k % 2 else seed
    try:
        market, x_star, sigma_star = getattr(demandinv, f"make_{family}_instance")(J, M, n, seed)
    except Exception as exc:  # a raising maker is an output too
        return type(exc).__name__, str(exc)
    arrays = (market.z, getattr(market, draws), market.beta, x_star, sigma_star)
    return tuple((a.shape, a.tobytes()) for a in arrays)


def record(market, x, want: bool, then=None) -> tuple:
    """One evaluation's (welfare, shares, jacobian) bytes, or its exception;
    `then`, if given, is called between the evaluation and the first read."""
    import numpy as np

    try:
        ev = market.evaluate(x, want_jacobian=want)
        if then is not None:
            then()
        welfare = ev.welfare  # a welfare computed on first read may raise there
    except Exception as exc:  # a raising evaluation is an output too
        return type(exc).__name__, str(exc)
    jac = b"" if ev.jacobian is None else ev.jacobian.tobytes()
    return np.float64(welfare).tobytes(), ev.shares.tobytes(), jac


def dump(per_kind: int) -> dict:
    """Per family, every evaluation's record, in a fixed order."""
    import numpy as np

    from demandinv import PureCharMarket

    out = {"purechar": [], "logit": [], "purechar non-finite": [], "logit non-finite": []}
    for f, family in enumerate(MAKERS):
        rng = np.random.default_rng([f, 2025])
        out[f"{family} maker"] = [made(family, rng, k) for k in range(per_kind)]
    for k, kind in enumerate(KINDS + ("logit",)):
        family = "logit" if kind == "logit" else "purechar"
        rng = np.random.default_rng([k, 2024])
        for _ in range(per_kind):
            market, x_star = draw_logit(rng) if kind == "logit" else draw_purechar(kind, rng)
            points = (x_star, x_star + rng.standard_normal(x_star.size), 1e6 * x_star,
                      np.zeros_like(x_star), x_star - 8.0)
            twin = None
            if family == "purechar":
                twin = PureCharMarket(
                    z=market.z[::-1], nu_rest=market.nu_rest[::-1], beta=market.beta
                )
            for x in points:
                for want in (False, True):
                    out[family].append(record(market, x, want))
                    if twin is not None:
                        def twin_call():
                            return record(twin, x[::-1] + 1.0, want)

                        twin_call()
                        out[family].append(record(market, x, want, then=twin_call))
            # x* lies within the logit table's room, x* + 1e3 past it
            for side, base in enumerate((x_star, x_star + 1e3)):
                for bad in (np.nan, np.inf, -np.inf):
                    x = base.copy()
                    x[side % x.size] = bad
                    for want in (False, True):
                        out[f"{family} non-finite"].append(record(market, x, want))
    return out


# The outputs of an evaluation record and of a maker record, in record order.
OUTPUTS = {
    "evaluations": ("welfare", "shares", "jacobian"),
    "maker": ("z", "draws", "beta", "x_star", "sigma_star"),
}


def ulps(a: bytes, b: bytes) -> int:
    """The largest gap in units in the last place between two equally long
    float64 arrays given as bytes; +0.0 and -0.0 are 1 apart."""
    import numpy as np

    lines = []
    for raw in (a, b):
        bits = np.frombuffer(raw, dtype=np.int64).tolist()
        lines.append([i if i >= 0 else -(1 << 63) - 1 - i for i in bits])  # monotone, -0.0 is -1
    return max((abs(i - j) for i, j in zip(*lines)), default=0)


def ulp_gaps(a: list, b: list, names: tuple) -> tuple[dict, int]:
    """Per output name, the largest gap in ulps between paired records, and the
    number of pairs where one tree raised or a shape differs."""
    gaps = dict.fromkeys(names, 0)
    mismatched = 0
    for x, y in zip(a, b):
        if x == y:
            continue
        if isinstance(x[0], str) or isinstance(y[0], str):  # an exception on either side
            mismatched += 1
            continue
        for name, u, v in zip(names, x, y):
            if isinstance(u, tuple):  # a maker's (shape, bytes)
                if u[0] != v[0]:
                    mismatched += 1
                    continue
                u, v = u[1], v[1]
            if len(u) != len(v):
                mismatched += 1
                continue
            gaps[name] = max(gaps[name], ulps(u, v))
    return gaps, mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--per-kind", type=int, default=120)
    parser.add_argument(
        "--ulps", type=int, default=0, metavar="BOUND",
        help="largest gap allowed, in units in the last place",
    )
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        sys.path.insert(0, args.old_src)
        sys.stdout.buffer.write(pickle.dumps(dump(args.per_kind)))
        return 0
    runs = []
    for src in (args.old_src, args.new_src):
        cmd = [sys.executable, __file__, src, src, "--per-kind", str(args.per_kind), "--dump"]
        runs.append(pickle.loads(subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout))
    old, new = runs
    bad = False
    for key in ("logit", "purechar", "logit maker", "purechar maker"):
        a, b = old[key], new[key]
        differ = sum(x != y for x, y in zip(a, b))
        if key.endswith("maker"):
            what, line = "maker", f"{key}: {len(a)} instances"
        else:
            markets = (1 if key == "logit" else len(KINDS)) * args.per_kind
            what, line = "evaluations", f"{key}: {markets} markets, {len(a)} evaluations"
        line += f", {differ} differ bitwise"
        gaps, mismatched = ulp_gaps(a, b, OUTPUTS[what])
        worst = ", ".join(f"{name} {gap}" for name, gap in gaps.items())
        line += f"; largest gap in ulps: {worst}; {mismatched} raise or change shape"
        bad |= len(a) != len(b) or mismatched > 0 or max(gaps.values()) > args.ulps
        print(line)
    for family in MAKERS:
        a, b = old[f"{family} non-finite"], new[f"{family} non-finite"]
        differ = sum(x != y for x, y in zip(a, b))
        raised = sum(isinstance(y[0], str) for y in b)
        print(
            f"{family} non-finite: {len(a)} evaluations, {raised} raise in the new tree, "
            f"{differ} differ in exception class, message or output"
        )
        bad |= len(a) != len(b) or differ > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
