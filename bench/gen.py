"""Seeded job generators for the two benchmark workloads.

A workload is two job *families*: ``cyclic`` runs ``cyclic-q`` and
``cyclic-fp``, ``structure`` runs ``hopf-fp`` and ``coherence``.

A job is a dict: ``id`` (stable within a seed), ``family``, ``kind``
(the CLI subcommand), ``argv`` for ``tannakit.cli.main``, ``stdin`` (the
generated JSON document, or None) and ``expect`` (the invariants that
``checks.check_job`` verifies on the ``--json`` output).

The expected values (``quotient_dim``, ``relation_rank``, the coherence
verdict) are derived here with the standard library alone, independently
of the program under test.

Each workload has one *round*: a fixed list of job shapes (family,
subcommand and size) whose contents the seed chooses.  A run repeats the
round, so every seed does the same amount of work per round and repeats
of a job can be compared by output digest.
"""

import json
import random
from fractions import Fraction

# -- workload shapes ----------------------------------------------------

# Every slot of a workload's round costs about the same (1.0-1.2 s per job
# in cyclic, 1.4 s in structure, on a 2-core machine), so the median and
# tail of a workload do not sit in a gap between two families' job costs.
# cyclic regular representation Z/n: (subcommand, n) per round slot
CYCLIC_Q_ROUND = [("reconstruct", 9), ("lift", 9), ("nat", 12), ("rho-tilde", 9)]
CYCLIC_FP_ROUND = [("reconstruct", 14), ("lift", 14), ("nat", 22), ("rho-tilde", 14)]
# Z/n character category with tensor and duality: n per round slot
HOPF_FP_ROUND = [7, 7]
# coherence pairs: (word length, number of dim-3 atoms, equal by construction)
COHERENCE_ROUND = [(7, 2, True), (7, 2, False)]
COHERENCE_LAYERS = 6

# smallest sizes, for the benchmark's own smoke test
SMOKE_CYCLIC_ROUND = [("reconstruct", 3), ("lift", 3), ("nat", 3), ("rho-tilde", 3)]
SMOKE_HOPF_ROUND = [3]
SMOKE_COHERENCE_ROUND = [(3, 1, True), (4, 2, False)]

PRIMES_NEAR_101 = [89, 97, 101, 103, 107, 109, 113]
ENUMERATION_BOUND = 1 << 17      # tannakit.hopf.grouplikes default

FAMILIES = {"cyclic": ("cyclic-q", "cyclic-fp"), "structure": ("hopf-fp", "coherence")}
WORKLOADS = tuple(FAMILIES)


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


# -- cyclic regular representation --------------------------------------


DIAGONAL = [1, -1, 2, -2, 3, -3]


def _monomial(rng, n):
    """A permutation times a diagonal of small nonzero integers, as (perm, diag).

    The diagonal is a shuffle of a fixed multiset, so every seed conjugates
    by the same set of ratios d_j/d_i and the Fraction sizes, hence job
    costs, do not depend on the seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [DIAGONAL[i % len(DIAGONAL)] for i in range(n)]
    rng.shuffle(diag)
    return perm, diag


def _conjugated_shift(n, perm, diag):
    """g = M C M^{-1} with C e_i = e_{i+1 mod n} and M e_i = diag[i] e_{perm[i]}.

    g is monomial: g e_{perm[i]} = (diag[i+1] / diag[i]) e_{perm[i+1]}.
    Returned as a dense list of Fractions.
    """
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        g[perm[j]][perm[i]] = Fraction(diag[j], diag[i])
    return g


def _mat_mul(a, b):
    n, m, k = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * k for _ in range(n)]
    for i in range(n):
        for t in range(m):
            x = a[i][t]
            if x:
                row = b[t]
                for j in range(k):
                    if row[j]:
                        out[i][j] += x * row[j]
    return out


def _fmt(x, p):
    if p is None:
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
            x.numerator, x.denominator)
    return str(x.numerator * pow(x.denominator, p - 2, p) % p)


def _fmt_matrix(m, p):
    return [[_fmt(x, p) for x in row] for row in m]


def cyclic_document(rng, n, p=None, with_comodule=False):
    """Z/n regular representation, g conjugated by a seeded monomial matrix.

    ``p`` None means over Q, else over F_p.  With ``with_comodule`` the
    document also carries B = functions on Z/n (Δδ_k = Σ_{a+b=k} δ_a⊗δ_b,
    ε = δ_0) and the coaction ρ(v) = Σ_h δ_h ⊗ g^h v on F(star).
    """
    perm, diag = _monomial(rng, n)
    g = _conjugated_shift(n, perm, diag)
    doc = {
        "field": "Q" if p is None else {"Fp": p},
        "objects": ["star"],
        "generators": [{"name": "g", "src": "star", "dst": "star"}],
        "relations": [[["g"] * n, {"at": "star"}]],
        "functor": {"on_objects": {"star": n},
                    "on_generators": {"g": _fmt_matrix(g, p)}},
    }
    if with_comodule:
        delta = [["0"] * n for _ in range(n * n)]
        for a in range(n):
            for b in range(n):
                delta[a * n + b][(a + b) % n] = "1"
        eps = [["1" if k == 0 else "0" for k in range(n)]]
        rho = []
        power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(n):
            rho.extend(_fmt_matrix(power, p))
            power = _mat_mul(g, power)
        doc["coalgebra"] = {"dim": n, "delta": delta, "eps": eps}
        doc["comodules"] = {"star": rho}
    return doc


def _cyclic_jobs(rng, family, round_shape, p_choices):
    jobs = []
    for slot, (kind, n) in enumerate(round_shape):
        p = None if p_choices is None else rng.choice(p_choices)
        doc = cyclic_document(rng, n, p, with_comodule=(kind == "rho-tilde"))
        expect = {"n": n}
        jobs.append(_job(family, slot, kind, [kind, "--json"], doc, expect))
    return jobs


# -- Z/n character category ----------------------------------------------


def hopf_primes(n):
    """Primes p ≡ 1 mod n with p^n above the grouplike enumeration bound."""
    return [p for p in range(n + 1, 40 * n)
            if p % n == 1 and _is_prime(p) and p ** n > ENUMERATION_BOUND]


def character_document(rng, n, p):
    """Z/n-graded lines over F_p: χ_a⊗χ_b = χ_{a+b}, dual χ_{-a}.

    The comparison maps are a seeded coboundary s_{a,b} = t_a t_b / t_{a+b}
    (t_0 = 1), which satisfies the unit, associativity and duality
    diagrams; object order is shuffled.
    """
    names = ["chi%d" % a for a in range(n)]
    t = [1] + [rng.randrange(1, p) for _ in range(n - 1)]
    objects = list(names)
    rng.shuffle(objects)
    s = {}
    for a in range(n):
        for b in range(n):
            val = t[a] * t[b] * pow(t[(a + b) % n], p - 2, p) % p
            s["%s,%s" % (names[a], names[b])] = [[str(val)]]
    unit = names[0]
    return {
        "field": {"Fp": p},
        "objects": objects,
        "generators": [],
        "relations": [],
        "functor": {"on_objects": {c: 1 for c in names}, "on_generators": {}},
        "tensor": {
            "unit": unit,
            "on_objects": [[names[a], names[b], names[(a + b) % n]]
                           for a in range(n) for b in range(n)],
            "s": s,
            "f_unit": [["1"]],
            "on_generators": [],
        },
        "duality": {
            "dual_of": {names[a]: names[(-a) % n] for a in range(n)},
            "eta": {c: {"at": unit} for c in names},
            "eps": {c: {"at": unit} for c in names},
        },
    }


def _hopf_jobs(rng, round_shape):
    jobs = []
    for slot, n in enumerate(round_shape):
        p = rng.choice(hopf_primes(n)[:6])
        doc = character_document(rng, n, p)
        jobs.append(_job("hopf-fp", slot, "reconstruct", ["reconstruct", "--json"],
                         doc, {"n": n}))
    return jobs


# -- coherence pairs -------------------------------------------------------

ATOM_DIMS = {"a": 2, "b": 3}


def _apply(layer, seq):
    """Apply one layer (an adjacent swap at ``pos``) to a sequence."""
    pos = layer[0]
    out = list(seq)
    out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return tuple(out)


def _layer_text(layer, word):
    """Canonical text of a layer: a whole-word swap, or a swap tensored with an id."""
    pos, split = layer
    if split is None:
        return "swap[%s;%d]" % (",".join(word), pos)
    left, right = word[:split], word[split:]
    if pos < split:
        return "(swap[%s;%d] * id[%s])" % (",".join(left), pos, ",".join(right))
    return "(id[%s] * swap[%s;%d])" % (",".join(left), ",".join(right), pos - split)


LAYER_KINDS = ("word", "left", "right")


def _layer(rng, length, kind):
    """One adjacent swap at a seeded position, on the whole word or one tensor side.

    The kind is fixed by the layer's index, so every seed evaluates the
    same mix of whole-word swaps and tensor products.
    """
    if kind == "left":           # (swap[w[:split];pos] * id[w[split:]])
        pos = rng.randrange(length - 2)
        return pos, rng.randint(pos + 2, length - 1)
    if kind == "right":          # (id[w[:split]] * swap[w[split:];pos-split])
        pos = rng.randrange(1, length - 1)
        return pos, rng.randint(1, pos)
    return rng.randrange(length - 1), None


def _layers(rng, length, count):
    return [_layer(rng, length, LAYER_KINDS[k % len(LAYER_KINDS)]) for k in range(count)]


def apply_layers(layers, seq):
    """The sequence after every layer's swap, in order."""
    seq = tuple(seq)
    for layer in layers:
        seq = _apply(layer, seq)
    return seq


def expression_text(word, layers):
    """Left-nested composite ``((l1 ; l2) ; l3)`` of the layers, from ``word``."""
    text = None
    for layer in layers:
        piece = _layer_text(layer, word)
        text = piece if text is None else "(%s ; %s)" % (text, piece)
        word = _apply(layer, word)
    return text


def coherence_pair(rng, length, n_b, equal):
    """Two layered expressions on one word; returns (text1, text2, verdict).

    Equal pairs insert a cancelling pair of swaps into a copy of the first
    expression.  Random pairs draw a second expression until the boundary
    words agree.  The verdict is the benchmark's own: whether both
    expressions move a list of distinct tokens to the same order.
    """
    word = ["b"] * n_b + ["a"] * (length - n_b)
    rng.shuffle(word)
    word = tuple(word)
    e1 = _layers(rng, length, COHERENCE_LAYERS)
    if equal:
        cut = rng.randrange(COHERENCE_LAYERS + 1)
        pos = rng.randrange(length - 1)
        pair = [(pos, None), (pos, None)]
        e2 = e1[:cut] + pair + e1[cut:]
    else:
        target = apply_layers(e1, word)
        for _ in range(100000):
            e2 = _layers(rng, length, COHERENCE_LAYERS + 2)
            if apply_layers(e2, word) == target:
                break
        else:
            raise RuntimeError("no random partner with matching boundary")
    tokens = range(length)
    verdict = apply_layers(e1, tokens) == apply_layers(e2, tokens)
    if equal and not verdict:
        raise RuntimeError("equal-by-construction pair is not equal")
    return expression_text(word, e1), expression_text(word, e2), verdict


def _coherence_jobs(rng, round_shape):
    jobs = []
    dims = ",".join("%s=%d" % kv for kv in sorted(ATOM_DIMS.items()))
    for slot, (length, n_b, equal) in enumerate(round_shape):
        t1, t2, verdict = coherence_pair(rng, length, n_b, equal)
        argv = ["coherence", t1, t2, "--dims", dims, "--json"]
        jobs.append(_job("coherence", slot, "coherence", argv, None,
                         {"equal": verdict}))
    return jobs


# -- entry point -------------------------------------------------------------


def _job(family, slot, kind, argv, doc, expect):
    return {"id": "%s/%d/%s" % (family, slot, kind), "family": family,
            "kind": kind, "argv": argv,
            "stdin": None if doc is None else json.dumps(doc),
            "expect": expect}


def _family_jobs(rng, family, smoke):
    if family == "cyclic-q":
        return _cyclic_jobs(rng, family,
                            SMOKE_CYCLIC_ROUND if smoke else CYCLIC_Q_ROUND, None)
    if family == "cyclic-fp":
        return _cyclic_jobs(rng, family,
                            SMOKE_CYCLIC_ROUND if smoke else CYCLIC_FP_ROUND,
                            PRIMES_NEAR_101)
    if family == "hopf-fp":
        return _hopf_jobs(rng, SMOKE_HOPF_ROUND if smoke else HOPF_FP_ROUND)
    return _coherence_jobs(rng, SMOKE_COHERENCE_ROUND if smoke else COHERENCE_ROUND)


def round_jobs(workload, seed, smoke=False):
    """The seeded job list of one round of ``workload`` (smallest sizes if ``smoke``).

    The round is the jobs of the workload's first family, then those of
    its second.
    """
    if workload not in FAMILIES:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    return [job for family in FAMILIES[workload]
            for job in _family_jobs(rng, family, smoke)]
