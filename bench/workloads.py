"""The four benchmark workloads.

Each workload prepares its inputs from the seed (``prepare``), runs one
job through the same library calls the command line makes (``job``,
given the harness's clock for timing single calls), and
checks a job's answers against facts that do not come from the engine
(``check``).  A job builds a fresh alphabet and ``DrblSystem``: the engine
keeps its caches on those objects, so every job does the same work.

Only ``nf-corpus`` draws its inputs from the seed.  The other three are
fixed instances, chosen because their answers are known facts.

``SIZES`` holds the full benchmark sizes and the tiny sizes the self-test
uses; ``FACTS`` holds the expected answers for each size.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class JobResult:
    """What one job produced.

    ``counts`` is the exact work done (rules, lifts, compositions,
    reduction steps, ...), which must repeat exactly from job to job.
    ``answers`` are the user-visible outputs, as (label, value) pairs.
    ``calls`` holds a (start, end) pair of readings of the clock the
    harness passes to ``job`` for each user-level call, when a job makes
    many; else it is None (the job is one call).  ``keep`` holds what
    ``check`` needs beyond the answers.
    """

    counts: dict
    answers: list
    calls: list | None = None
    keep: object = None


@dataclass
class Workload:
    prepare: object
    job: object
    check: object


def _config(lib, gens, weight):
    return lib.AlgebraConfig(lib.make_alphabet(gens), Fraction(weight))


def _expect(facts, key, got):
    """(label, ok, detail) for one fact; a fact the size lacks is skipped."""
    if key not in facts:
        return []
    want = facts[key]
    return [(key, got == want, "got %r, expected %r" % (got, want))]


# ---------------------------------------------------------------------------
# gsb-deg7: check-gsb on the full weight-0 system at degree 7.


def gsb_prepare(lib, seed, size):
    return SIZES["gsb-deg7"][size]


def gsb_job(lib, p, clock):
    engine = lib.DrblSystem(_config(lib, p["gens"], p["weight"])).system(p["degree"])
    report = engine.is_gsb("lie")
    counts = {
        "rules": len(engine.rules),
        "lifts": len(engine.lifted),
        "compositions": report.total,
        "uncertified": len(report.failures),
    }
    answers = [("compositions", report.total), ("uncertified", len(report.failures))]
    return JobResult(counts, answers, keep=engine)


def _inventory(lib, engine):
    """Ambiguities by (left origin, right origin, kind), lifted and nested."""
    ambs = engine.find_ambiguities()
    classes = Counter(
        (
            engine.rules[a.left.rule_index].origin[0],
            engine.rules[a.right.rule_index].origin[0],
            a.kind,
        )
        for a in ambs
    )
    lifted = sum(1 for a in ambs if a.left.lift > 0 or a.right.lift > 0)
    nested = sum(
        1
        for a in ambs
        if a.context is not None and type(a.context.core) is lib.ArgHole
    )
    return dict(classes), lifted, nested


def gsb_check(lib, p, result, facts):
    answers = dict(result.answers)
    out = _expect(facts, "compositions", answers["compositions"])
    out += _expect(facts, "uncertified", answers["uncertified"])
    if "inventory" in facts:
        classes, lifted, nested = _inventory(lib, result.keep)
        out += _expect(facts, "inventory", classes)
        out += _expect(facts, "lifted", lifted)
        out += _expect(facts, "nested", nested)
    return out


# ---------------------------------------------------------------------------
# s1-build-deg9: build the section-rule engine, reduce six lifted-pair
# identities (acceptance check 9) in Lie mode.


def s1_prepare(lib, seed, size):
    return SIZES["s1-build-deg9"][size]


def _pair_identities(lib, config, drbl):
    """D^j of a pair rule minus its residue formula, j in {1, 2}.

    Each difference lies in the section-rule ideal, so it reduces to 0.
    """
    Word, Prime, OpApp = lib.Word, lib.Prime, lib.OpApp
    x = Word((Prime(0, "x1"),))
    y = Word((Prime(0, "x2"),))
    dx = Word((Prime(1, "x1"),))
    lam = config.weight

    def djp(u, j):
        return Word((Prime(j, OpApp("P", (u,))),))

    out = []
    for u, v in ((x, y), (dx, x), (dx, y)):
        ub = lib.lie_expand(config, lib.shirshov_bracket(u, config.alphabet))
        vb = lib.lie_expand(config, lib.shirshov_bracket(v, config.alphabet))
        for j in (1, 2):
            lifted = lib.apply_D(config, drbl.rota_baxter_rule(u, v).poly, j)
            residue = (
                lib.commutator(lib.Poly.word(djp(u, j)), lib.Poly.word(djp(v, j)))
                - lib.commutator(
                    lib.apply_D(config, ub, j - 1), lib.apply_D(config, vb, j - 1)
                )
            ).scale(lam**j)
            out.append(lifted - residue)
    return out


def s1_job(lib, p, clock):
    config = _config(lib, p["gens"], p["weight"])
    drbl = lib.DrblSystem(config)
    engine = drbl.system(p["degree"], s1_only=True)
    steps = 0
    nonzero = 0
    for diff in _pair_identities(lib, config, drbl):
        log = []
        if not engine.reduce(diff, mode="lie", log=log).is_zero():
            nonzero += 1
        steps += len(log)
    counts = {
        "rules": len(engine.rules),
        "lifts": len(engine.lifted),
        "reduction_steps": steps,
        "nonzero_identities": nonzero,
    }
    answers = [
        ("rules", len(engine.rules)),
        ("lifts", len(engine.lifted)),
        ("nonzero_identities", nonzero),
    ]
    return JobResult(counts, answers)


def s1_check(lib, p, result, facts):
    answers = dict(result.answers)
    out = []
    for key in ("rules", "lifts", "nonzero_identities"):
        out += _expect(facts, key, answers[key])
    return out


# ---------------------------------------------------------------------------
# nf-corpus: parse -> drbl_nf -> format over a seeded expression corpus.


def _term(c: Fraction, text: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    body = text if mag == 1 else "%s %s" % (mag, text)
    if first:
        return body if sign == "+" else "-" + body
    return " %s %s" % (sign, body)


def _combination(terms) -> str:
    return "".join(_term(c, t, i == 0) for i, (c, t) in enumerate(terms))


def nf_prepare(lib, seed, size):
    """A seeded corpus of (kind, text) pairs in the command line's syntax.

    15% are instances of the Rota-Baxter identity
    [P(a) P(b)] - P([a P(b)]) - P([P(a) b]) - λP([a b]) and 15% of the
    section identity D(P(a)) - a, over random structural-basis elements
    a, b; they are zero in the algebra.  The rest are random rational
    combinations of distinct standard-bracketed ALSW words.  The shares
    are exact and only the order is drawn, so the slowest expressions, which
    set the tail latency, vary less from seed to seed.  Everything stays at
    degree at most ``max_degree``.
    """
    p = SIZES["nf-corpus"][size]
    rng = random.Random(seed)
    config = _config(lib, p["gens"], p["weight"])
    lam = config.weight
    alphabet = config.alphabet
    deg = p["max_degree"]
    basis = lib.enumerate_basis(lib.DrblSystem(config), deg - 2)
    by_deg = {d: [lib.format_term(t) for t in basis[d]] for d in basis}
    small = [(d, t) for d in sorted(by_deg) for t in by_deg[d]]
    brackets = [
        lib.format_term(lib.shirshov_bracket(w, alphabet))
        for w in lib.enumerate_alsw(config, deg)
    ]
    n = p["expressions"]
    kinds = ["rota-baxter"] * (n * 15 // 100) + ["section"] * (n * 15 // 100)
    kinds += ["combination"] * (n - len(kinds))
    rng.shuffle(kinds)
    corpus = []
    for kind in kinds:
        if kind == "rota-baxter":
            da, a = rng.choice([e for e in small if e[0] <= deg - 3])
            _, b = rng.choice([e for e in small if e[0] <= deg - 2 - da])
            terms = [
                (Fraction(1), "[P(%s) P(%s)]" % (a, b)),
                (Fraction(-1), "P([%s P(%s)])" % (a, b)),
                (Fraction(-1), "P([P(%s) %s])" % (a, b)),
            ]
            if lam:
                terms.append((-lam, "P([%s %s])" % (a, b)))
            corpus.append(("identity", _combination(terms)))
        elif kind == "section":
            _, a = rng.choice(small)
            terms = [(Fraction(1), "D(P(%s))" % a), (Fraction(-1), a)]
            corpus.append(("identity", _combination(terms)))
        else:
            words = rng.sample(brackets, rng.randint(1, 4))
            terms = [
                (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)), w)
                for w in words
            ]
            corpus.append(("combination", _combination(terms)))
    return {"params": p, "corpus": corpus}


def nf_job(lib, inputs, clock):
    p = inputs["params"]
    config = _config(lib, p["gens"], p["weight"])
    alphabet = config.alphabet
    drbl = lib.DrblSystem(config)
    outputs = []
    forms = []
    calls = []
    steps = 0
    zeros = 0
    for _, text in inputs["corpus"]:
        log = []
        start = clock()
        try:
            nf = lib.drbl_nf(lib.parse_term(text, alphabet), drbl, log=log)
            out = lib.format_term(nf, config)
        except Exception as e:  # a raised answer is a failed answer
            nf, out = None, "raised %s: %s" % (type(e).__name__, e)
        calls.append((start, clock()))
        outputs.append(out)
        forms.append(nf)
        steps += len(log)
        zeros += out == "0"
    counts = {"expressions": len(outputs), "reduction_steps": steps, "zero_outputs": zeros}
    answers = list(enumerate(outputs))
    return JobResult(counts, answers, calls, keep=(config, drbl, forms))


def nf_check(lib, inputs, result, facts):
    """Identity instances normalise to 0; other outputs are fixed points.

    A non-identity output must be idempotent under ``drbl_nf`` and must
    come back byte-identical after format -> parse -> ``drbl_nf`` ->
    format.
    """
    config, drbl, forms = result.keep
    want_zero = facts["identity_output"]
    out = []
    for (kind, text), (_, got), nf in zip(inputs["corpus"], result.answers, forms):
        if nf is None:
            out.append((text, False, got))
            continue
        if kind == "identity":
            out.append((text, got == want_zero, "normal form %s" % got))
            continue
        try:
            again = lib.drbl_nf(nf, drbl)
            if got == "0":
                back = got
            else:
                back = lib.format_term(
                    lib.drbl_nf(lib.parse_term(got, config.alphabet), drbl), config
                )
        except Exception as e:  # a raised answer is a failed answer
            out.append((text, False, "check raised %s: %s" % (type(e).__name__, e)))
            continue
        ok = again == nf and back == got
        out.append((text, ok, "normal form %s, round trip %s" % (got, back)))
    return out


# ---------------------------------------------------------------------------
# basis-oracle: the basis and oracle-dim commands at one degree.


def basis_prepare(lib, seed, size):
    return SIZES["basis-oracle"][size]


def basis_job(lib, p, clock):
    config = _config(lib, p["gens"], p["weight"])
    basis = lib.enumerate_basis(lib.DrblSystem(config), p["degree"])
    counts_b = tuple(len(basis[d]) for d in range(1, p["degree"] + 1))
    config = _config(lib, p["gens"], p["weight"])
    rules = lib.instantiate_rules(lib.DrblSystem(config), p["degree"])
    dims = lib.oracle_quotient_dim(config, rules, p["degree"])
    counts = {"basis": counts_b, "oracle_dims": dims, "rules": len(rules)}
    return JobResult(counts, [("basis", counts_b), ("oracle_dims", dims)])


def basis_check(lib, p, result, facts):
    answers = dict(result.answers)
    out = [
        (
            "basis counts equal oracle ranks",
            answers["basis"] == answers["oracle_dims"],
            "basis %r, ranks %r" % (answers["basis"], answers["oracle_dims"]),
        )
    ]
    out += _expect(facts, "dims", answers["oracle_dims"])
    return out


# ---------------------------------------------------------------------------

SIZES = {
    "gsb-deg7": {
        "full": {"gens": 2, "weight": 0, "degree": 7},
        "tiny": {"gens": 2, "weight": 0, "degree": 5},
    },
    "s1-build-deg9": {
        "full": {"gens": 2, "weight": 1, "degree": 9},
        "tiny": {"gens": 2, "weight": 0, "degree": 7},
    },
    "nf-corpus": {
        "full": {"gens": 2, "weight": 1, "max_degree": 6, "expressions": 2000},
        "tiny": {"gens": 2, "weight": 1, "max_degree": 5, "expressions": 40},
    },
    "basis-oracle": {
        "full": {"gens": 2, "weight": 1, "degree": 6},
        "tiny": {"gens": 2, "weight": 1, "degree": 3},
    },
}

# Expected answers.  The full-size facts are acceptance criteria 5, 6 and 9
# of the test suite and the counts the engine's specification states; the
# tiny sizes check only what holds at every size.
FACTS = {
    "gsb-deg7": {
        "full": {
            "compositions": 245,
            "uncertified": 0,
            "inventory": {
                ("section", "section", "inclusion"): 107,
                ("rota-baxter", "section", "inclusion"): 115,
                ("section", "rota-baxter", "inclusion"): 16,
                ("rota-baxter", "rota-baxter", "inclusion"): 2,
                ("rota-baxter", "rota-baxter", "intersection"): 5,
            },
            "lifted": 113,
            "nested": 169,
        },
        "tiny": {"uncertified": 0},
    },
    "s1-build-deg9": {
        "full": {"rules": 7220, "lifts": 8970, "nonzero_identities": 0},
        "tiny": {"nonzero_identities": 0},
    },
    "nf-corpus": {
        "full": {"identity_output": "0"},
        "tiny": {"identity_output": "0"},
    },
    "basis-oracle": {
        "full": {"dims": (2, 5, 17, 57, 211, 785)},
        "tiny": {"dims": (2, 5, 17)},
    },
}

# Why each workload is in the benchmark, and which layers it should and
# should not move, is recorded in BENCHMARK.json.
WORKLOADS = {
    "gsb-deg7": Workload(gsb_prepare, gsb_job, gsb_check),
    "s1-build-deg9": Workload(s1_prepare, s1_job, s1_check),
    "nf-corpus": Workload(nf_prepare, nf_job, nf_check),
    "basis-oracle": Workload(basis_prepare, basis_job, basis_check),
}
