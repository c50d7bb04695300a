"""End-to-end acceptance gate.

Every test here prints one `[acceptance] ... PASS` or `... FAIL` line on the
real terminal (bypassing capture) so a log scan shows exactly which
guarantees hold. Comparisons of meanings are exact alpha-equality of
normalized terms; timings are wall-clock on the derivation calls.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from gluesem.errors import NotProvable
from gluesem.glue import parse_glue
from gluesem.oracle import oracle_enumerate
from gluesem.proofcheck import check_proof
from gluesem.prover import (
    SearchLimits,
    SearchStats,
    derive_readings,
    prove,
    prove_theorem,
)
from gluesem.terms import (
    App,
    Down,
    Lam,
    Up,
    canonical_key,
    format_term,
    infer_type,
    normalize,
    parse_term,
)
from gluesem.types import E, T, arrow, parse_type

from random_terms import TYPE_POOL, random_term

_MODULE_START = time.perf_counter()


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def check(label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"[acceptance] {label}: PASS")

    return check


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def reading_keys(readings):
    return sorted(canonical_key(r.meaning) for r in readings)


def expected_keys(texts, signature):
    return sorted(canonical_key(normalize(parse_term(t, signature)))
                  for t in texts)


def derive_timed(corpus, name):
    scenario, prems = corpus[name]
    readings, seconds = timed(lambda: derive_readings(prems, scenario.goal))
    return scenario, prems, readings, seconds


# ---------------------------------------------------------------------------
# single readings


def test_criterion_1_bill_left(corpus, criterion):
    with criterion("1. 'Bill left': exactly leave(Bill), <0.1s"):
        scenario, _, readings, seconds = derive_timed(corpus, "bill-left")
        assert len(readings) == 1
        want = normalize(parse_term("leave(Bill)",
                                    scenario.lexicon.signature))
        assert readings[0].meaning == want
        assert seconds < 0.1


def test_criterion_2_every_man_left(corpus, criterion):
    with criterion("2. 'every man left': exactly every(z, man(z), leave(z)),"
                   " index discipline does the scope pruning, <0.1s"):
        scenario, prems, readings, seconds = derive_timed(
            corpus, "every-man-left")
        assert len(readings) == 1
        want = normalize(parse_term("every(z, man(z), leave(z))",
                                    scenario.lexicon.signature))
        assert readings[0].meaning == want
        assert seconds < 0.1
        # with the typed index active nothing ever scopes at the
        # entity-indexed subject projection; with it off, the search
        # wanders into those dead ends and the meaning types reject them
        on, off = SearchStats(), SearchStats()
        derive_readings(prems, scenario.goal,
                        SearchLimits(typed_scope=True), on)
        relaxed = derive_readings(prems, scenario.goal,
                                  SearchLimits(typed_scope=False), off)
        assert on.ill_typed_attempts == 0
        assert off.ill_typed_attempts >= 1
        assert reading_keys(relaxed) == reading_keys(readings)


def test_criterion_3_bill_seeks_al(corpus, criterion):
    with criterion("3. 'Bill seeks Al': exactly seek(Bill, ^!P(Al)) and the"
                   " type-raised form is provable from Al alone, <0.5s"):
        scenario, _, readings, seconds = derive_timed(corpus,
                                                      "bill-seeks-al")
        sig = scenario.lexicon.signature
        assert len(readings) == 1
        want = normalize(parse_term(
            "seek(Bill, ^(\\P:(s -> e -> t). !P(Al)))", sig))
        assert readings[0].meaning == want
        # the raised form of the object, derivable before the verb uses it
        raised = parse_glue(
            "forall S:proj(t), P:e -> t. "
            "(forall x:e. h.sig ~> x -o S ~> P(x)) -o S ~> P(Al)", sig)
        al = parse_glue("h.sig ~> Al", sig)
        lemma_proofs, lemma_seconds = timed(lambda: prove([al], raised))
        assert lemma_proofs
        assert seconds + lemma_seconds < 0.5


def test_criterion_4_bill_seeks_a_unicorn(corpus, criterion):
    with criterion("4. 'Bill seeks a unicorn': exactly the de dicto and"
                   " de re readings, <1s"):
        scenario, _, readings, seconds = derive_timed(
            corpus, "bill-seeks-a-unicorn")
        sig = scenario.lexicon.signature
        de_dicto = "seek(Bill, ^(\\P:(s -> e -> t). a(z, unicorn(z), !P(z))))"
        de_re = "a(z, unicorn(z), seek(Bill, ^(\\P:(s -> e -> t). !P(z))))"
        assert reading_keys(readings) == expected_keys([de_dicto, de_re],
                                                       sig)
        assert seconds < 1.0


FIVE_SCOPINGS = [
    # the quantifiers can land on either side of the intension boundary
    # independently; (a) keeps both inside, which is the reading a pure
    # type-raising treatment of the object cannot produce
    "seek(Bill, ^(\\P:(s -> e -> t). "
    "every(u, unicorn(u), a(z, conv-with(z, u), !P(z)))))",
    "seek(Bill, ^(\\P:(s -> e -> t). "
    "a(z, every(u, unicorn(u), conv-with(z, u)), !P(z))))",
    "every(u, unicorn(u), "
    "seek(Bill, ^(\\P:(s -> e -> t). a(z, conv-with(z, u), !P(z)))))",
    "every(u, unicorn(u), "
    "a(z, conv-with(z, u), seek(Bill, ^(\\P:(s -> e -> t). !P(z)))))",
    "a(z, every(u, unicorn(u), conv-with(z, u)), "
    "seek(Bill, ^(\\P:(s -> e -> t). !P(z))))",
]


def test_criterion_5_conversation(corpus, criterion):
    with criterion("5. 'Bill seeks a conversation with every unicorn':"
                   " exactly the five scopings incl. the doubly-narrow one,"
                   " <5s"):
        scenario, _, readings, seconds = derive_timed(corpus, "conversation")
        sig = scenario.lexicon.signature
        assert len(readings) == 5
        assert reading_keys(readings) == expected_keys(FIVE_SCOPINGS, sig)
        doubly_narrow = canonical_key(
            normalize(parse_term(FIVE_SCOPINGS[0], sig)))
        assert doubly_narrow in reading_keys(readings)
        assert seconds < 5.0


# ---------------------------------------------------------------------------
# theorems


def test_criterion_6_theorem_suite(corpus, criterion):
    with criterion("6. type raising from no premises and quantifying-in"
                   " from {Bill, seeks}, each <1s"):
        sig = {
            "Bill": E,
            "seek": parse_type("e -> (s -> ((s -> (e -> t)) -> t)) -> t"),
        }
        raising = parse_glue(
            "forall I:proj(e), Z:e. I ~> Z -o "
            "(forall S:proj(t), P:e -> t. "
            "(forall x:e. I ~> x -o S ~> P(x)) -o S ~> P(Z))", sig)
        proof, seconds = timed(lambda: prove_theorem(raising))
        check_proof(proof, premises=(), goal=raising)
        assert seconds < 1.0

        bill = parse_glue("g.sig ~> Bill", sig)
        seeks = parse_glue(
            "forall Z:e, Y:(s -> (e -> t)) -> t. "
            "g.sig ~> Z * (forall s:proj(t), p:e -> t. "
            "(forall X:e. h.sig ~> X -o s ~> p(X)) -o s ~> Y(^p)) "
            "-o f.sig ~> seek(Z, ^Y)", sig)
        quantifying_in = parse_glue(
            "forall Z:e. h.sig ~> Z -o "
            "f.sig ~> seek(Bill, ^(\\R:(s -> (e -> t)). !R(Z)))", sig)
        proofs, seconds = timed(lambda: prove([bill, seeks],
                                              quantifying_in))
        assert proofs
        assert seconds < 1.0

        # sanity: the checker is not a rubber stamp
        bogus = parse_glue(
            "forall I:proj(e), Z:e, W:e. I ~> Z -o I ~> W", sig)
        with pytest.raises(NotProvable):
            prove_theorem(bogus)


# ---------------------------------------------------------------------------
# property suite


RAND_SIG = {
    "Bill": E,
    "Al": E,
    "leave": arrow(E, T),
    "sleep": arrow(E, T),
    "find": arrow(E, E, T),
    "every": parse_type("(e -> t) -> (e -> t) -> t"),
    "a": parse_type("(e -> t) -> (e -> t) -> t"),
    "man": arrow(E, T),
    "unicorn": arrow(E, T),
}


def _random_noun_phrase(rng, label):
    if rng.random() < 0.5:
        return parse_glue(f"{label}.sig ~> {rng.choice(['Bill', 'Al'])}",
                          RAND_SIG)
    det = rng.choice(["every", "a"])
    noun = rng.choice(["man", "unicorn"])
    return parse_glue(
        f"forall H:proj(t), S:e -> t. "
        f"(forall x:e. {label}.sig ~> x -o H ~> S(x)) "
        f"-o H ~> {det}(z, {noun}(z), S(z))", RAND_SIG)


def _random_scenario(rng):
    premises = [_random_noun_phrase(rng, "g")]
    if rng.random() < 0.5:
        premises.append(_random_noun_phrase(rng, "h"))
        premises.append(parse_glue(
            "forall Z:e, Y:e. g.sig ~> Z * h.sig ~> Y -o "
            "f.sig ~> find(Z, Y)", RAND_SIG))
    else:
        verb = rng.choice(["leave", "sleep"])
        premises.append(parse_glue(
            f"forall X:e. g.sig ~> X -o f.sig ~> {verb}(X)", RAND_SIG))
    rng.shuffle(premises)
    return premises


def test_criterion_7i_linearity(corpus, criterion):
    with criterion("7(i). every proof validates, on the corpus and on"
                   " 1000 random scenarios"):
        for scenario, prems in corpus.values():
            readings = derive_readings(prems, scenario.goal)
            assert readings
            for reading in readings:
                check_proof(reading.proof, premises=prems,
                            goal=scenario.goal)
        rng = random.Random(20260815)
        for _ in range(1000):
            premises = _random_scenario(rng)
            readings = derive_readings(premises, "f")
            assert readings
            for reading in readings:
                check_proof(reading.proof, premises=premises, goal="f")


def test_criterion_7ii_permutation_invariance(corpus, criterion):
    with criterion("7(ii). reading sets are identical under every premise"
                   " ordering"):
        for scenario, prems in corpus.values():
            baseline = reading_keys(derive_readings(prems, scenario.goal))
            for perm in itertools.permutations(prems):
                got = reading_keys(derive_readings(list(perm),
                                                   scenario.goal))
                assert got == baseline, scenario.name


def _has_cancelled_pair(t):
    if isinstance(t, Down) and isinstance(t.body, Up):
        return True
    if isinstance(t, (Up, Down)):
        return _has_cancelled_pair(t.body)
    if isinstance(t, Lam):
        return _has_cancelled_pair(t.body)
    if isinstance(t, App):
        return any(map(_has_cancelled_pair, (t.fn,) + t.args))
    return False


def test_criterion_7iii_normalization(criterion):
    with criterion("7(iii). normalization is idempotent and removes every"
                   " extension-of-intension pair, on 10000 random terms"):
        rng = random.Random(1234)
        for _ in range(10000):
            ty = rng.choice(TYPE_POOL)
            term = random_term(rng, ty, [], rng.randint(0, 4))
            normal = normalize(term)
            assert normalize(normal) == normal
            assert infer_type(normal) == ty
            assert not _has_cancelled_pair(normal)


def test_criterion_7iv_oracle_equivalence(corpus, criterion):
    with criterion("7(iv). the search agrees with the reference enumerator"
                   " on every scenario"):
        for scenario, prems in corpus.values():
            assert len(prems) <= 8
            searched = derive_readings(prems, scenario.goal)
            enumerated = oracle_enumerate(prems, scenario.goal)
            assert reading_keys(enumerated) == reading_keys(searched), \
                scenario.name


def test_acceptance_module_runtime(criterion):
    with criterion("whole acceptance module under the 60s suite budget"):
        assert time.perf_counter() - _MODULE_START < 60.0
