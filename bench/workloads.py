"""The three benchmark workloads: inputs, ops, verdicts and output sizes.

Each workload is built from a seed into a fixed list of inputs and a
seeded order over them.  The benchmark loop runs ops one at a time (one
client, closed loop) in whole passes over that order; see ``run.py``.

A workload object provides:

* ``order``: every input index once, in the order ops are issued;
* ``run_op(i)``: the timed call into the program for input ``i``;
* ``judge(i, raw)``: ``"ok"`` for the expected verdict, ``"failed"`` for a
  size-cap hit reported by the program, ``"wrong"`` for anything else;
* ``outputs(i, raw)``: the exact results whose term counts are the size
  metrics (dual components, bracket outputs, generator bases); ``raw`` is
  ``None`` when every op on input ``i`` failed.

Input generation uses only this module's own random polynomials (integer
coefficients in [-3, 3], total degree <= 2, one to three terms), written as
expression text, so the same seed gives the same inputs whatever the
program version; the program is used only to parse them and, for
dual-certify, to reject pairs whose density vanishes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Any

INPUTS_DIR = Path(__file__).resolve().parent / "inputs"

CHARTS = {3: ("x", "y", "z"), 5: ("x1", "y1", "x2", "y2", "z")}

# Expected `cckit verify` exit codes of the structures the benchmark owns.
FIXED_EXIT = {
    "cosym3": 0,
    "contact3": 0,
    "contact5": 0,
    "acc3": 0,
    "singular3": 1,
    "acc5b": 0,
}

# Regular pairs of random_closed_pair per number of terms of the density
# omega ^ Omega^n (7 standing for 7 or more), counted over 3000 draws per
# dimension by ``bench/strata.py``; pairs with a zero density (43 and 61 of
# the 3000) are left out.  These are the generator's natural shares.
DUAL_NATURAL = {
    3: {1: 870, 2: 832, 3: 631, 4: 334, 5: 162, 6: 73, 7: 55},
    5: {1: 1396, 2: 753, 3: 357, 4: 238, 5: 79, 6: 52, 7: 64},
}
DENSITY_STRATA = 7
# Random pairs per dimension: a stratified sample in which each stratum gets
# its natural share of DUAL_PAIRS (rounded by largest remainder).  Strata of
# density size DUAL_PANEL_STRATUM and more (139 of the 400 pairs) are drawn
# from DUAL_PANEL_SEED, the same in every run, and the lighter strata from
# the run's seed.  The heavy pairs set most of the time, the 90th percentile
# and nearly every size-cap hit, and their cost varies widely from pair to
# pair: drawn per seed, they moved the summed op time of one seed against
# another by 15 %, and from the panel by 2 % (quartile distance over median,
# eight seeds, ops interleaved across the seeds so that the machine's drift
# was shared).
DUAL_PAIRS = 200
DUAL_PANEL_STRATUM = 3
DUAL_PANEL_SEED = 0
PAIR_OPS = 160
# Pairs drawn with full polynomials from PAIR_PANEL_SEED, the same in every
# run: they give the largest bracket outputs, so the size maxima do not
# hinge on which seed drew the one biggest pair.
PAIR_PANEL = 16
PAIR_PANEL_SEED = 0
PAIR_STRUCTURES = ("acc3", "contact5")
SEARCH_STRUCTURES = ("cosym3", "contact3", "acc3", "contact5")
SEARCH_MAX_DEGREE = {3: 3, 5: 2}

Poly = dict[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# seeded random polynomials, kept as {exponent: int} and printed as text
# ---------------------------------------------------------------------------


def random_poly(rng: random.Random, nvars: int, degree: int, full: bool = False) -> Poly:
    """One to three terms of degree <= `degree`; `full`: three of degree `degree`."""
    terms: Poly = {}
    for _ in range(3 if full else rng.randint(1, 3)):
        exponent = [0] * nvars
        for _ in range(degree if full else rng.randint(0, degree)):
            exponent[rng.randrange(nvars)] += 1
        key = tuple(exponent)
        terms[key] = terms.get(key, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {key: value for key, value in terms.items() if value}


def partial(poly: Poly, index: int) -> Poly:
    out: Poly = {}
    for exponent, coeff in poly.items():
        if exponent[index]:
            lowered = exponent[:index] + (exponent[index] - 1,) + exponent[index + 1:]
            out[lowered] = out.get(lowered, 0) + coeff * exponent[index]
    return out


def add(left: Poly, right: Poly, sign: int = 1) -> Poly:
    out = dict(left)
    for exponent, coeff in right.items():
        out[exponent] = out.get(exponent, 0) + sign * coeff
    return {key: value for key, value in out.items() if value}


def poly_text(poly: Poly, names: tuple[str, ...]) -> str:
    if not poly:
        return "0"
    pieces = []
    for exponent, coeff in sorted(poly.items(), reverse=True):
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exponent) if e
        ]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        pieces.append(("-" if coeff < 0 else "+", "*".join(factors)))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def random_closed_pair(rng: random.Random, dim: int) -> dict[str, Any]:
    """omega = dz + c dx_i, Omega = Darboux form + d(beta): a structure file.

    beta is a random 1-form with two nonzero components, so Omega is
    closed by construction; the pair may still be singular.
    """
    names = CHARTS[dim]
    one = {(0,) * dim: 1}
    omega = {(dim - 1,): one}
    coeff = random_poly(rng, dim, 2)
    if coeff:
        omega[(rng.randrange(dim - 1),)] = coeff
    beta = {j: random_poly(rng, dim, 2) for j in rng.sample(range(dim), 2)}
    Omega = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            comp = add(partial(beta.get(b, {}), a), partial(beta.get(a, {}), b), -1)
            if a % 2 == 0 and b == a + 1 < dim - 1:
                comp = add(comp, one)
            if comp:
                Omega[(a, b)] = comp
    return {
        "dimension": dim,
        "coordinates": list(names),
        "omega": [[list(key), poly_text(p, names)] for key, p in sorted(omega.items())],
        "Omega": [[list(key), poly_text(p, names)] for key, p in sorted(Omega.items())],
    }


def random_pair_text(rng: random.Random, dim: int, full: bool = False) -> dict[str, Any]:
    """A generator pair (alpha, h) with random polynomial components.

    Each alpha component is present with probability 0.8, or always when
    `full`, which also makes every component a full polynomial.
    """
    names = CHARTS[dim]
    alpha = {
        j: random_poly(rng, dim, 2, full)
        for j in range(dim) if rng.random() < 0.8 or full
    }
    return {
        "alpha": [[[j], poly_text(p, names)] for j, p in sorted(alpha.items()) if p],
        "h": poly_text(random_poly(rng, dim, 2, full), names),
    }


def density_stratum(program, path: Path) -> int:
    """0 for a zero density, else its number of terms, at most DENSITY_STRATA."""
    cov = program.files.load_structure(str(path))
    density = program.structures.regularity_density(cov)
    return 0 if density.is_zero() else min(len(density.num.terms), DENSITY_STRATA)


def allocate(shares: dict[int, int], total: int) -> dict[int, int]:
    """`total` split in proportion to `shares`, by largest remainder."""
    whole = sum(shares.values())
    counts = {key: total * share // whole for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: (-(total * shares[key] % whole), key))
    for key in by_remainder[: total - sum(counts.values())]:
        counts[key] += 1
    return counts


# ---------------------------------------------------------------------------
# helpers shared by the workloads
# ---------------------------------------------------------------------------


def scalars(*results: Any) -> list[Any]:
    """Every Scalar in a mix of Scalars, tensors and generator pairs."""
    out = []
    for result in results:
        if hasattr(result, "num"):
            out.append(result)
        elif hasattr(result, "comps"):
            out.extend(result.comps.values())
        else:
            out.extend(scalars(result.alpha, result.h))
    return out


def load_fixed(program, name: str):
    return program.files.load_structure(str(INPUTS_DIR / f"{name}.json"))


def parse_pair(program, chart, doc: dict[str, Any]):
    parse = program.algebra.parse_scalar
    alpha = program.exterior.DiffForm(
        chart, 1, {tuple(key): parse(text, chart) for key, text in doc["alpha"]}
    )
    return program.symmetries.GeneratorPair(alpha, parse(doc["h"], chart))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class DualCertify:
    """One in-process `cckit verify -s FILE --json` per op.

    Inputs: DUAL_PAIRS random closed regular pairs in each of dimensions 3
    and 5, stratified by density size at the natural shares of
    DUAL_NATURAL (the light strata from the seed, the heavy ones from
    DUAL_PANEL_SEED), plus the five catalog structures and acc5b, in a
    seeded order.
    """

    name = "dual-certify"

    def __init__(self, program, seed: int, workdir: Path):
        self.program = program
        rng = random.Random(seed)
        self.paths: list[str] = []
        self.expected: list[int] = []
        panel = random.Random(DUAL_PANEL_SEED)
        for dim, shares in DUAL_NATURAL.items():
            counts = allocate(shares, DUAL_PAIRS)
            light = {k: n for k, n in counts.items() if k < DUAL_PANEL_STRATUM}
            self._draw(rng, dim, light, workdir)
            self._draw(panel, dim, {k: n for k, n in counts.items() if k not in light}, workdir)
        for name, code in FIXED_EXIT.items():
            self.paths.append(str(INPUTS_DIR / f"{name}.json"))
            self.expected.append(code)
        self.order = list(range(len(self.paths)))
        rng.shuffle(self.order)

    def _draw(self, rng: random.Random, dim: int, wanted: dict[int, int], workdir: Path) -> None:
        """Draw pairs until every stratum holds its count; skip the rest."""
        while any(wanted.values()):
            path = workdir / f"pair{len(self.paths):04d}.json"
            path.write_text(json.dumps(random_closed_pair(rng, dim)))
            stratum = density_stratum(self.program, path)
            if wanted.get(stratum):
                wanted[stratum] -= 1
                self.paths.append(str(path))
                self.expected.append(0)

    def run_op(self, index: int) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.program.cli.run(["verify", "-s", self.paths[index], "--json"])
        return code, err.getvalue()

    def judge(self, index: int, raw: tuple[int, str]) -> str:
        code, err = raw
        if code == self.expected[index]:
            return "ok"
        if code == 2 and "size cap exceeded" in err:
            return "failed"
        return "wrong"

    def outputs(self, index: int, raw: Any) -> list[Any]:
        program = self.program
        cov = program.files.load_structure(self.paths[index])
        try:
            con = program.structures.dualize(cov)
        except (program.algebra.TermLimitExceeded, program.structures.StructureError):
            return []
        return scalars(con.E, con.Lam)


class PairCalculus:
    """pair_bracket, its commutator residual and the three-way verdict per op.

    Inputs: PAIR_OPS random (g1, g2) generator pairs from the run's seed and
    PAIR_PANEL full ones from PAIR_PANEL_SEED, alternating between acc3
    (rational dual) and contact5 (polynomial dual), whose duals are built in
    set-up; in a seeded order.
    """

    name = "pair-calculus"

    def __init__(self, program, seed: int, workdir: Path):
        self.program = program
        rng = random.Random(seed)
        self.structures = {}
        for name in PAIR_STRUCTURES:
            cov = load_fixed(program, name)
            self.structures[name] = (cov, program.structures.dualize(cov))
        self.inputs = []
        panel = random.Random(PAIR_PANEL_SEED)
        for k in range(PAIR_OPS + PAIR_PANEL):
            name = PAIR_STRUCTURES[k % len(PAIR_STRUCTURES)]
            chart = self.structures[name][0].chart
            source, full = (rng, False) if k < PAIR_OPS else (panel, True)
            g1, g2 = (
                parse_pair(program, chart, random_pair_text(source, chart.dim, full))
                for _ in range(2)
            )
            self.inputs.append((name, g1, g2))
        self.order = list(range(len(self.inputs)))
        rng.shuffle(self.order)

    def run_op(self, index: int):
        sym = self.program.symmetries
        name, g1, g2 = self.inputs[index]
        cov, con = self.structures[name]
        out = sym.pair_bracket(cov, con, g1, g2)
        residual = sym.pair_to_vector(cov, con, out) - self.program.exterior.schouten_bracket(
            sym.pair_to_vector(cov, con, g1), sym.pair_to_vector(cov, con, g2)
        )
        agree = sym.theorem_equivalence_check(cov, con, g1).agree
        return out, residual.is_zero(), agree

    def judge(self, index: int, raw) -> str:
        _, compatible, agree = raw
        return "ok" if compatible and agree else "wrong"

    def outputs(self, index: int, raw) -> list[Any]:
        return [] if raw is None else scalars(raw[0])


class GeneratorSearch:
    """One find_generator_pairs(cov, con, target, d) per op.

    Inputs: every combination of the four structures, the ten symmetry
    targets and 1 <= d <= 3 (dimension 3) or 1 <= d <= 2 (dimension 5), in
    a seeded order.  Every returned generator must pass its conditions and
    be nontrivial, and the basis size must equal the recorded count.
    """

    name = "generator-search"

    def __init__(self, program, seed: int, workdir: Path):
        self.program = program
        rng = random.Random(seed)
        counts = json.loads((INPUTS_DIR / "generator_counts.json").read_text())
        self.structures = {}
        self.inputs = []
        for name in SEARCH_STRUCTURES:
            cov = load_fixed(program, name)
            self.structures[name] = (cov, program.structures.dualize(cov))
            for target in program.symmetries.SymmetryTarget:
                for d in range(1, SEARCH_MAX_DEGREE[cov.chart.dim] + 1):
                    expected = counts[name][target.value][d - 1]
                    self.inputs.append((name, target, d, expected))
        self.order = list(range(len(self.inputs)))
        rng.shuffle(self.order)
        self.checked: dict[int, tuple[str, Any]] = {}

    def run_op(self, index: int):
        name, target, d, _ = self.inputs[index]
        cov, con = self.structures[name]
        return self.program.symmetries.find_generator_pairs(cov, con, target, d)

    def judge(self, index: int, raw) -> str:
        # The basis is exact, so the first basis of each input is checked in
        # full and a later one that equals it has the same verdict; any other
        # basis is checked in full again.
        if index not in self.checked:
            self.checked[index] = (self._check(index, raw), raw)
        verdict, reference = self.checked[index]
        return verdict if raw == reference else self._check(index, raw)

    def _check(self, index: int, basis) -> str:
        sym = self.program.symmetries
        name, target, _, expected = self.inputs[index]
        cov, con = self.structures[name]
        if len(basis) != expected:
            return "wrong"
        for g in basis:
            if sym.pair_to_vector(cov, con, g).is_zero():
                return "wrong"
            if not sym.check_generator_conditions(cov, con, g, target).ok:
                return "wrong"
        return "ok"

    def outputs(self, index: int, raw) -> list[Any]:
        return [] if raw is None else scalars(*raw)


WORKLOADS = {cls.name: cls for cls in (DualCertify, PairCalculus, GeneratorSearch)}
