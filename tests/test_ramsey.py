"""Finite-sums algebra and canonical-form searches."""

import hashlib
import random
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from idealbench import certify, checkers, ramsey
from idealbench.cli import run
from idealbench.ideals import hindman_witness_search, ramsey_witness_search
from idealbench.pairing import code_unordered
from idealbench.ramsey import (
    HINDMAN,
    RAMSEY,
    block_disjoint,
    canonical_hindman_search,
    canonical_ramsey_search,
    classify_canonical,
    delta,
    diff_multiplicity,
    difference_mask,
    eventually_sparse_check,
    fs,
    matching_cases,
    max_support,
    min_support,
    support,
)
from idealbench.serialize import canonical_bytes, dump_json
from idealbench.sets import (Cofinite, Complement, Finite, Intervals, Progression, Union,
                             modular_avoiders)


def test_fs_examples():
    assert fs({1, 2}) == (1, 2, 3)
    assert fs({1, 2, 4}) == tuple(range(1, 8))
    with pytest.raises(ValueError):
        fs([2, 2])


def test_fs_keeps_a_zero_summand():
    assert fs([0, 3]) == (0, 3)
    assert fs([3]) == (3,)


@given(st.sets(st.integers(1, 40), min_size=1, max_size=8))
def test_fs_bounds(a):
    sums = fs(a)
    assert min(sums) == min(a)
    assert max(sums) == sum(a)
    assert len(sums) <= 2 ** len(a) - 1
    # independent enumeration
    brute = sorted({sum(c) for r in range(1, len(a) + 1) for c in combinations(a, r)})
    assert list(sums) == brute


def test_support_values():
    assert support(13) == (1, 4, 8)
    assert support(16) == (16,)
    with pytest.raises(ValueError):
        support(0)


def test_support_roundtrip_to_ten_thousand():
    for x in range(1, 10001):
        assert sum(support(x)) == x


@given(st.integers(1, 1 << 200))
def test_support_extremes_match_support(x):
    assert min_support(x) == min(support(x))
    assert max_support(x) == max(support(x))


@pytest.mark.parametrize("x", [0, -1, -8])
def test_support_extremes_reject_non_positive(x):
    with pytest.raises(ValueError):
        min_support(x)
    with pytest.raises(ValueError):
        max_support(x)


def test_delta_examples():
    assert delta({1, 3, 6}) == (2, 3, 5)
    assert delta({9}) == ()
    assert delta({0, 1, 2}) == (1, 2)


@pytest.mark.parametrize(
    "seq,expected", [((1, 6), True), ((3, 4), True), ((2, 3), False)]
)
def test_block_disjoint(seq, expected):
    assert block_disjoint(seq) is expected


# -- classification ---------------------------------------------------------------

def pair_domain(verts):
    return [frozenset(p) for p in combinations(verts, 2)]


def test_classify_constant_is_case_one():
    dom = pair_domain(range(4))
    f = {x: 9 for x in dom}
    assert classify_canonical(f, dom, RAMSEY).case == 1


def test_classify_min_form():
    dom = pair_domain(range(5))
    f = {x: min(x) for x in dom}
    assert classify_canonical(f, dom, RAMSEY).case == 2


def test_classify_injective_pairs():
    dom = pair_domain(range(5))
    f = {x: code_unordered(min(x), max(x)) for x in dom}
    assert classify_canonical(f, dom, RAMSEY).case == 4


def test_classify_tiny_domain_ties_take_smallest_case():
    dom = pair_domain(range(2))  # a single pair satisfies every biconditional
    f = {dom[0]: 3}
    assert matching_cases(f, dom, RAMSEY) == [1, 2, 3, 4]
    assert classify_canonical(f, dom, RAMSEY).case == 1


def test_classify_sums_identity():
    # two anchors: min-and-max support determines the sum, so cases 4 and 5 tie
    dom = list(fs((1, 2)))
    f = {x: x for x in dom}
    assert matching_cases(f, dom, HINDMAN) == [4, 5]
    assert classify_canonical(f, dom, HINDMAN).case == 4
    # three anchors separate them: only injectivity survives
    dom3 = list(fs((1, 2, 4)))
    f3 = {x: x for x in dom3}
    assert matching_cases(f3, dom3, HINDMAN) == [5]


def test_classify_min_support_form():
    dom = list(fs((1, 2, 4)))
    f = {x: min(support(x)) for x in dom}
    assert classify_canonical(f, dom, HINDMAN).case == 2


# pairwise statement of every biconditional, the reference for matching_cases
REFERENCE_KEYS = {
    RAMSEY: {1: lambda x: 0, 2: min, 3: max, 4: lambda x: x},
    HINDMAN: {
        1: lambda x: 0,
        2: lambda x: min(support(x)),
        3: lambda x: max(support(x)),
        4: lambda x: (min(support(x)), max(support(x))),
        5: lambda x: x,
    },
}


def pairwise_cases(f, domain, family):
    keys = REFERENCE_KEYS[family]
    return [
        case
        for case in sorted(keys)
        if all(
            (f[x] == f[y]) == (keys[case](x) == keys[case](y))
            for x, y in combinations(domain, 2)
        )
    ]


# a non-integer label value stands in for a bottom marker
LABELS = st.one_of(st.integers(0, 4), st.just("__bot__"))


@st.composite
def coloured_domains(draw):
    """A family, a domain of pairs or finite sums, and a colouring of it.

    Colourings are random or factor through one case's key, so every case
    holds on some draws; sub-domains reach down to one and two elements.
    """
    family = draw(st.sampled_from([RAMSEY, HINDMAN]))
    if family == RAMSEY:
        verts = draw(st.sets(st.integers(0, 9), min_size=2, max_size=6))
        full = pair_domain(sorted(verts))
    else:
        full = list(fs(draw(st.sets(st.integers(1, 40), min_size=1, max_size=5))))
    picked = draw(st.sets(st.sampled_from(range(len(full))), min_size=1))
    domain = [full[j] for j in sorted(picked)]
    mode = draw(st.sampled_from(["random"] + sorted(REFERENCE_KEYS[family])))
    if mode == "random":
        f = {x: draw(LABELS) for x in domain}
    else:
        key = REFERENCE_KEYS[family][mode]
        relabel = {}
        f = {}
        for x in domain:
            if key(x) not in relabel:
                relabel[key(x)] = draw(LABELS)
            f[x] = relabel[key(x)]
    return family, domain, f


@given(coloured_domains())
def test_matching_cases_agree_with_pairwise_reference(drawn):
    family, domain, f = drawn
    cases = matching_cases(f, domain, family)
    assert cases == pairwise_cases(f, domain, family)
    form = classify_canonical(f, domain, family)
    if cases:
        assert form.case == cases[0]
    else:
        assert form is None


def test_hindman_domain_with_zero_is_rejected():
    dom = [0, 1, 2]
    f = {x: x for x in dom}
    with pytest.raises(ValueError):
        matching_cases(f, dom, HINDMAN)
    with pytest.raises(ValueError):
        classify_canonical(f, dom, HINDMAN)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_classification_survives_restriction(case):
    # restricting a case-k witness keeps case k or degenerates downward
    rules = {
        1: lambda x: 0,
        2: lambda x: min(x),
        3: lambda x: max(x),
        4: lambda x: code_unordered(min(x), max(x)),
    }
    verts = range(6)
    full = pair_domain(verts)
    f = {x: rules[case](x) for x in full}
    assert classify_canonical(f, full, RAMSEY).case == case
    for sub in combinations(verts, 3):
        dom = pair_domain(sub)
        got = classify_canonical(f, dom, RAMSEY)
        assert got is not None
        assert got.case <= case
        assert case in matching_cases(f, dom, RAMSEY) or got.case < case
    for sub in combinations(verts, 2):
        dom = pair_domain(sub)
        assert classify_canonical(f, dom, RAMSEY).case == 1  # single pair ties


def test_canonical_ramsey_search_examples():
    dom5 = pair_domain(range(5))
    constant = {x: 1 for x in dom5}
    assert canonical_ramsey_search(constant, 5, 3) == ((0, 1, 2), classify_canonical(constant, pair_domain((0, 1, 2)), RAMSEY))
    injective = {x: code_unordered(min(x), max(x)) for x in dom5}
    t, form = canonical_ramsey_search(injective, 5, 3)
    assert t == (0, 1, 2)
    assert form.case == 4


def test_canonical_ramsey_search_none_when_nothing_matches():
    # the path-pair pattern on a triangle has no canonical case
    dom = pair_domain(range(3))
    f = {frozenset({0, 1}): 0, frozenset({1, 2}): 0, frozenset({0, 2}): 1}
    assert canonical_ramsey_search(f, 3, 3) is None


# the definition the table-driven search must meet
def first_canonical_subset(f, n, m):
    for t in combinations(range(n), m):
        form = classify_canonical(f, pair_domain(t), RAMSEY)
        if form is not None:
            return t, form
    return None


def test_canonical_ramsey_search_on_every_k4_colouring():
    edges = pair_domain(range(4))
    colourings = [dict(zip(edges, rgs)) for rgs in certify._partitions_rgs(len(edges))]
    assert len(colourings) == 203
    for f in colourings:
        for m in range(6):
            assert canonical_ramsey_search(f, 4, m) == first_canonical_subset(f, 4, m)


def test_canonical_ramsey_search_reads_colour_tuples_by_edge_rank():
    # a restricted-growth string colours the k-th pair of combinations(range(n), 2)
    for n in (4, 9):
        edges = pair_domain(range(n))
        rng = random.Random(n)
        strings = list(certify._partitions_rgs(len(edges))) if n == 4 else [
            tuple(rng.randrange(3) for _ in edges) for _ in range(20)]
        for rgs in strings:
            f = dict(zip(edges, rgs))
            for m in range(n + 2):
                assert canonical_ramsey_search(rgs, n, m) == first_canonical_subset(f, n, m)


def reference_rgs(length):
    """Restricted-growth strings of ``length`` by recursion, in lexicographic order."""
    def extend(prefix, top):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            yield from extend(prefix + [v], max(top, v))

    return list(extend([], -1))


@pytest.mark.parametrize("length", range(9))
def test_restricted_growth_strings_are_every_set_partition_in_order(length):
    got = list(certify._partitions_rgs(length))
    assert got == reference_rgs(length)
    assert len(got) == [1, 1, 2, 5, 15, 52, 203, 877, 4140][length]  # Bell numbers


@st.composite
def pair_colourings(draw):
    """A colouring of the pairs of [n], n <= 7, and a subset size m <= n + 1.

    Colourings are random or factor through one case's key, so matches of
    every case and searches without a match are both drawn.
    """
    n = draw(st.integers(0, 7))
    m = draw(st.integers(0, n + 1))
    mode = draw(st.sampled_from(["random"] + sorted(REFERENCE_KEYS[RAMSEY])))
    values = st.integers(0, 2)
    f = {}
    if mode == "random":
        for x in pair_domain(range(n)):
            f[x] = draw(values)
    else:
        key = REFERENCE_KEYS[RAMSEY][mode]
        relabel = {}
        for x in pair_domain(range(n)):
            if key(x) not in relabel:
                relabel[key(x)] = draw(values)
            f[x] = relabel[key(x)]
    return f, n, m


@given(pair_colourings())
def test_canonical_ramsey_search_is_the_first_canonical_subset(drawn):
    f, n, m = drawn
    assert canonical_ramsey_search(f, n, m) == first_canonical_subset(f, n, m)


@pytest.mark.parametrize("seed", range(4))
def test_canonical_ramsey_search_past_the_kept_tables(seed):
    rng = random.Random(seed)
    for n in (9, 10):
        f = {x: rng.randrange(3) for x in pair_domain(range(n))}
        for m in range(6):
            assert canonical_ramsey_search(f, n, m) == first_canonical_subset(f, n, m)


def test_canonical_hindman_search_examples():
    constant = {x: 3 for x in range(1, 8)}
    got = canonical_hindman_search(constant, 8, 2)
    assert got is not None
    assert got[0] == (1, 2)
    assert got[1].case == 1

    identity = {x: x for x in range(1, 8)}
    got = canonical_hindman_search(identity, 8, 2)
    assert got[0] == (1, 2)
    # min-and-max support already pins every sum of two anchors, so the
    # smallest-case tie rule reports 4 rather than 5 on this tiny domain
    assert got[1].case == 4

    identity9 = {x: x for x in range(1, 9)}
    got = canonical_hindman_search(identity9, 9, 3)
    assert got[0] == (1, 2, 4)
    assert got[1].case == 5


def test_canonical_hindman_search_respects_sum_bound():
    identity = {x: x for x in range(1, 7)}
    assert canonical_hindman_search(identity, 7, 3) is None


# -- sparseness --------------------------------------------------------------------

def test_sparse_check_examples():
    assert eventually_sparse_check({0, 1, 3}, 1).passed
    report = eventually_sparse_check({0, 1, 2, 3}, 2)
    assert not report.passed
    assert (1, 3) in report.violations


@given(st.sets(st.integers(0, 24), min_size=4, max_size=5))
def test_difference_images_fail_sparseness(family):
    members = sorted(family)
    image = delta(members)
    report = eventually_sparse_check(image, len(members) - 3)
    assert not report.passed
    shared = members[1] - members[0]
    assert diff_multiplicity(image).get(shared, 0) >= len(members) - 2


def test_multiplicity_tables_agree_with_ideals_module():
    from idealbench.ideals import diff_multiplicity as other

    for family in combinations(range(12), 4):
        assert diff_multiplicity(family) == other(family)


@settings(deadline=None, max_examples=80)
@given(st.sets(st.integers(0, 150), max_size=12))
@example(set())
@example({7})
def test_difference_mask_is_the_difference_image(family):
    mask = difference_mask(family)
    image = delta(family)
    assert mask == sum(1 << d for d in image)
    table = diff_multiplicity(image)
    for d in range(1, mask.bit_length() + 1):
        assert (mask & (mask >> d)).bit_count() == table.get(d, 0)


def test_difference_mask_rejects_negative_members():
    with pytest.raises(ValueError):
        difference_mask([3, -1])


def _reference_sparseness_body(universe, sizes):
    """The sparseness body as the difference tables compute it."""
    checked = failed = witnessed = 0
    for size in sizes:
        for family in combinations(range(universe), size):
            report = eventually_sparse_check(delta(family), size - 3)
            checked += 1
            if not report.passed:
                failed += 1
            shared = family[1] - family[0]
            if dict(report.violations).get(shared, 0) >= size - 2:
                witnessed += 1
    return {
        "universe": universe,
        "sizes": list(sizes),
        "checked": checked,
        "failed_as_predicted": failed,
        "shared_difference_witnessed": witnessed,
        "all_fail": failed == checked,
        "all_witnessed": witnessed == checked,
    }


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 12), st.lists(st.integers(2, 7), max_size=3))
@example(12, [2, 3, 6])
@example(5, [2])
@example(3, [3])
@example(2, [2, 7])
@example(9, [7, 3, 2])
def test_sparseness_body_matches_difference_tables(universe, sizes):
    cert = certify.produce("sparseness", {"universe": universe, "sizes": sizes}, 0)
    assert cert["body"] == _reference_sparseness_body(universe, sizes)


def mask_tallies(universe, size):
    """(checked, failed, witnessed) of each family's own ``difference_mask``."""
    floor = max(size - 3, 0)
    checked = failed = witnessed = 0
    for family in combinations(range(universe), size):
        diffs = difference_mask(family)
        counts = [(diffs & (diffs >> d)).bit_count() for d in range(1, universe)]
        m = (diffs & (diffs >> (family[1] - family[0]))).bit_count()
        checked += 1
        failed += any(c > floor for c in counts)
        witnessed += (m if m > floor else 0) >= size - 2
    return checked, failed, witnessed


@pytest.mark.parametrize("universe", range(13))
def test_grown_family_tallies_match_each_familys_difference_mask(universe):
    for size in range(2, 8):
        assert certify._family_tallies(universe, size) == mask_tallies(universe, size)


def refuse_the_sparseness_producer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sparseness checker ran producer code")

    for name in ("produce", "_sparseness", "_family_tallies"):
        monkeypatch.setattr(certify, name, refuse)
    monkeypatch.setitem(certify._PRODUCERS, "sparseness", refuse)


def every_sparseness_input(largest_universe=12):
    """Each universe up to ``largest_universe`` with each sorted list of at most 3 sizes."""
    for universe in range(largest_universe + 1):
        for count in range(4):
            for sizes in combinations_with_replacement(range(2, 8), count):
                yield universe, list(sizes)


def test_the_sparseness_checker_accepts_every_genuine_body_without_the_producer(monkeypatch):
    bodies = [(u, sizes, certify._sparseness(u, sizes)) for u, sizes in every_sparseness_input()]
    assert len(bodies) == 1092
    assert any(not body["all_fail"] for _, _, body in bodies)
    refuse_the_sparseness_producer(monkeypatch)
    for universe, sizes, body in bodies:
        assert checkers.check_sparseness(body, universe, sizes) is None


def sparseness_leaves(node, path="$.body"):
    """(container, key, path) of every scalar leaf of a sparseness body."""
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        at = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(child, list):
            yield from sparseness_leaves(child, at)
        else:
            yield node, key, at


@pytest.mark.parametrize("universe, sizes", [(25, [4, 5]), (8, [2]), (12, [2, 3, 7]), (0, [])])
def test_the_sparseness_checker_alone_rejects_a_mutant_of_every_leaf(monkeypatch, universe,
                                                                      sizes):
    cert = certify.produce("sparseness", {"universe": universe, "sizes": sizes}, 0)
    refuse_the_sparseness_producer(monkeypatch)
    body = cert["body"]
    leaves = 0
    for node, key, path in sparseness_leaves(body):
        leaf = node[key]
        node[key] = (not leaf) if isinstance(leaf, bool) else leaf + 1
        passed, detail = certify.recheck(cert)
        node[key] = leaf
        leaves += 1
        assert not passed
        assert detail.startswith(f"check failed at {path}: "), detail
    assert leaves == 6 + len(sizes)


@pytest.mark.parametrize(
    "field, value, path",
    [("checked", "28", "checked"), ("checked", True, "checked"), ("checked", 28.0, "checked"),
     ("failed_as_predicted", None, "failed_as_predicted"),
     ("shared_difference_witnessed", 29, "shared_difference_witnessed"),
     ("all_fail", 0, "all_fail"), ("all_witnessed", "true", "all_witnessed"),
     ("universe", True, "universe"), ("sizes", "2", "sizes"), ("sizes", [2, 2], "sizes"),
     ("sizes", [2.0], "sizes[0]"), ("sizes", [True], "sizes[0]"), ("extra", 1, "extra")],
    ids=["checked-a-string", "checked-a-bool", "checked-a-float", "failed-null",
         "witnessed-off-by-one", "all-fail-an-int", "all-witnessed-a-string",
         "universe-a-bool", "sizes-a-string", "sizes-too-long", "size-a-float", "size-a-bool",
         "a-stray-field"],
)
def test_cli_certify_fails_a_malformed_sparseness_body_with_exit_1(tmp_path, capsys, field,
                                                                   value, path):
    cert = certify.produce("sparseness", {"universe": 8, "sizes": [2]}, 0)
    cert["body"][field] = value
    src = tmp_path / "certificate.json"
    dump_json(src, cert)
    assert run(["certify", "--in", str(src)]) == 1
    assert capsys.readouterr().out.startswith(f"check failed at $.body.{path}: ")


@pytest.mark.parametrize("field", ["universe", "sizes", "checked", "failed_as_predicted",
                                   "shared_difference_witnessed", "all_fail", "all_witnessed"])
def test_cli_certify_fails_a_sparseness_body_missing_a_field_with_exit_1(tmp_path, capsys,
                                                                        field):
    cert = certify.produce("sparseness", {"universe": 8, "sizes": [2]}, 0)
    del cert["body"][field]
    src = tmp_path / "certificate.json"
    dump_json(src, cert)
    assert run(["certify", "--in", str(src)]) == 1
    assert capsys.readouterr().out == f"check failed at $.body.{field}: is missing\n"


def test_cli_certify_fails_a_sparseness_body_that_is_not_an_object(tmp_path, capsys):
    cert = certify.produce("sparseness", {"universe": 8, "sizes": [2]}, 0)
    src = tmp_path / "certificate.json"
    dump_json(src, {**cert, "body": [28]})
    assert run(["certify", "--in", str(src)]) == 1
    assert capsys.readouterr().out.startswith("check failed at $.body: ")


# sha256 of the canonical certificate bytes (seed 0) as the difference tables
# wrote them; the later ones cover sizes 2 and 3, a size-2 list that does
# not all fail, and no sizes at all
PINNED_SPARSENESS = {
    (12, (2, 3, 6)): "e4aae44fb6be586934040155ff9f5f117df60abeb4330029395fcdc111ee031a",
    (25, (4, 5)): "50eb125b6fcaa2272d7124e9a673b08e9c7ef4e4fbd3154b7403e48effb0dedd",
    (12, (2, 3, 7)): "6217983281f8b32ff32441a76a17b4e32d69cf20f2a737bf258e89c6a632c582",
    (8, (2,)): "b0549e5a58ff6f1ef8afcd6a14fbe006b6d9c207eb1f39250bb1bfae5a66dc11",
    (0, ()): "bc64efc3065ba69dec023ae23089694b6bd913b8a711fd7bd88652d66f2966ed",
}


@pytest.mark.parametrize("universe, sizes", list(PINNED_SPARSENESS))
def test_sparseness_certificate_bytes_are_pinned(universe, sizes):
    cert = certify.produce("sparseness", {"universe": universe, "sizes": list(sizes)}, 0)
    digest = hashlib.sha256(canonical_bytes(cert)).hexdigest()
    assert digest == PINNED_SPARSENESS[(universe, sizes)]


# -- the ramsey-oracle certificate --------------------------------------------------

def randrange_rgs(length, rng):
    """A restricted-growth string drawn by ``rng.randrange``, value by value."""
    out = []
    top = -1
    for _ in range(length):
        value = rng.randrange(top + 2)
        out.append(value)
        top = max(top, value)
    return tuple(out)


@pytest.mark.parametrize("seed", range(64))
def test_word_sampler_draws_what_randrange_draws(seed):
    # 1,500 strings of each length chain thousands of draws through one generator state
    for length in (0, 1, 2, 3, 6, 10, 15):
        for samples in (1, 7, 1500):
            fast, slow = random.Random(seed), random.Random(seed)
            got = list(certify._random_rgs(samples, length, fast))
            assert got == [randrange_rgs(length, slow) for _ in range(samples)]
            assert fast.getstate() == slow.getstate()


# sha256 of the 10,000 strings that C07 samples at seed 0, one byte per value,
# as the randrange loop drew them
C07_STREAM = "287608505aa21cf1289137c55b9ca294df404ff93587f382c2745ab4fa66b340"


def test_c07_sample_stream_is_pinned():
    strings = certify._random_rgs(10000, 10, random.Random(0))
    assert hashlib.sha256(bytes(chain.from_iterable(strings))).hexdigest() == C07_STREAM


C07_INPUTS = {"size": 3, "exhaustive_n": 4, "sample_n": 5, "samples": 10000}

# sha256 of the canonical certificate bytes of C07's inputs per seed, as the
# randrange sampler and the per-colouring search wrote them
PINNED_RAMSEY_ORACLE = [
    "7dfdfa64dc3cc9a88ffbdeb7761232a93390f2f9bd9091547399f88c14c2b043",
    "58419341fc1b82beda8b2d67bb7af219ec088cb3d8500420a2f6a2206ea3fb8d",
    "6f12fa8c9db0f2c6881527e441f5b62e937706ca5161a8481a10562937783c98",
    "a97e385bd75a5daeebedb628d6a3763fbaf853f46a18a27868aacee90e4dc6ea",
    "51b10d0eda0118c0a866bcccaffbbb015c9c3755a294255750c2d2e11d3bc304",
    "997f86d4cdecd87f75e11fb132d1310ced326095d6f545fb9d848a227ca1c4b6",
    "3c2b0acc88161ee8f5443136a2b8fa5d094872e3ae3810c1cbb0680511c0e721",
    "cc2bbc225d5ec0aa07b01f5ed1d41cea8871031d254a5ea0c6bb64f43eee1519",
    "39e4c04e8c76a780b86deaa846e0753ec07ebf1471695a599cacb98554974ec4",
    "2d150079cee61fe2e03757114462bc975540809c7b52dce6963dd27c99277f5f",
    "d2fa271441f54140f7858f013f77d5cd909ce6d085b99a60a0b28e86c9516099",
    "50d3f0efc91eaf25662cc9f324963376084f069455fc7e435f96a6048031f5da",
    "d4c5d8ce428f8671be004cf03b28fad15157f0c7911ea6ab026b2db4c2045a3c",
    "42ac4ef8a9b68af749b3d9e87395bcfd6b164143756bea17ce0edae4b03c6d48",
    "c2e5b18ab13d9348dbc51957c23ae1eabff138bc51e50af0c620989f8fb1a4df",
    "d760c6ba385f8d220a84939560ec87ee2cbd7f543ce2573dd1b28565e8413fd4",
]


@pytest.mark.parametrize("seed", range(len(PINNED_RAMSEY_ORACLE)))
def test_ramsey_oracle_certificate_bytes_are_pinned(seed):
    cert = certify.produce("ramsey-oracle", C07_INPUTS, seed)
    digest = hashlib.sha256(canonical_bytes(cert)).hexdigest()
    assert digest == PINNED_RAMSEY_ORACLE[seed]


# sha256 of the canonical certificate bytes of small inputs of the other
# sizes, as the per-colouring dicts wrote them: (size, exhaustive_n,
# sample_n, samples, seed); size 2 enumerates all 115,975 colourings of K_5
PINNED_RAMSEY_ORACLE_SIZES = {
    (0, 4, 5, 300, 1): "c40c311dc2b386cdcee51f0408bf654c428ff70f0a0b615b0df838e56402afa4",
    (2, 5, 6, 300, 2): "5ae4f478ae6defaad3304c04e1b1bfc87528513bcb5b0f7c4ce1b9ea6edc3ada",
    (4, 4, 6, 500, 3): "bf48302c1fb286b7de847e5080d880f82115beda605e99738a14d962d69e7a30",
    (5, 4, 6, 400, 4): "a6fc709a56a30d161ee6b3375bc57aa57867aef7fbac4f49c849d9d4b5f0c8f3",
}


@pytest.mark.parametrize("size, exhaustive_n, sample_n, samples, seed",
                         sorted(PINNED_RAMSEY_ORACLE_SIZES))
def test_ramsey_oracle_certificate_bytes_of_other_sizes_are_pinned(size, exhaustive_n, sample_n,
                                                                   samples, seed):
    inputs = {"size": size, "exhaustive_n": exhaustive_n, "sample_n": sample_n,
              "samples": samples}
    digest = hashlib.sha256(canonical_bytes(certify.produce("ramsey-oracle", inputs, seed)))
    assert digest.hexdigest() == PINNED_RAMSEY_ORACLE_SIZES[size, exhaustive_n, sample_n,
                                                            samples, seed]


def test_the_oracle_answers_every_k4_colouring_without_the_ramsey_module(monkeypatch):
    edges = pair_domain(range(4))
    strings = list(certify._partitions_rgs(len(edges)))
    expected = {}
    for rgs in strings:
        f = dict(zip(edges, rgs))
        for m in range(6):
            found = first_canonical_subset(f, 4, m)
            expected[rgs, m] = None if found is None else (found[0], found[1].case)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the ramsey module")

    for name, value in vars(ramsey).items():
        if callable(value) and not name.startswith("_") and value.__module__ == ramsey.__name__:
            monkeypatch.setattr(ramsey, name, refuse)
    for m in range(6):
        domains = checkers._oracle_domains(4, m)
        for rgs in strings:
            assert checkers.oracle_ramsey_search(rgs, domains) == expected[rgs, m]


def test_recheck_recomputes_every_colouring(monkeypatch):
    cert = certify.produce("ramsey-oracle", C07_INPUTS, 0)
    search = ramsey.canonical_ramsey_search
    calls = []

    def counted(f, n, m):
        calls.append(n)
        return search(f, n, m)

    monkeypatch.setattr(ramsey, "canonical_ramsey_search", counted)
    for _ in range(2):
        calls.clear()
        assert certify.recheck(cert) == (True, "certificate re-verified")
        assert len(calls) == 203 + 10000


# -- pinned search outputs ---------------------------------------------------------------

def _search_grid():
    """(search, its output) over a grid of sets, sizes and horizons, misses included."""
    sets = (Progression(0, 3), Progression(1, 2), Progression(2, 4), modular_avoiders(3),
            Cofinite((0, 1, 2, 5)), Finite((1, 2, 3, 5, 8, 13)), Finite(()),
            Intervals(((3, 9), (20, 40))), Complement(Progression(1, 3)),
            Union((Progression(0, 5), Finite((1, 2, 4)))))
    for a in sets:
        for size in (1, 2, 3):
            for horizon in (0, 9, 40, 130):
                yield "hindman", hindman_witness_search(a, size, horizon)
        for size in (2, 3, 4):
            for horizon in (0, 6, 15, 30):
                yield "ramsey", ramsey_witness_search(a, size, horizon)
    rng = random.Random(27)
    colourings = (lambda x: 0, lambda x: x, min_support, max_support, lambda x: x % 3,
                  lambda x: bin(x).count("1") % 2, lambda x: rng.randrange(3))
    for colour in colourings:
        for sum_bound in (1, 8, 20, 64):
            f = {x: colour(x) for x in range(1, sum_bound)}
            for m in (1, 2, 3):
                found = canonical_hindman_search(f, sum_bound, m)
                yield "canonical", None if found is None else (found[0], found[1].case)


# sha256 over the repr of every output of _search_grid, as the three hand-written
# depth-first searches found them
PINNED_SEARCH_GRID = "8eb88cbb277e8563925ba9c9152bb350c56b614473eca843f9e338c3e10c3629"


def test_witness_and_canonical_search_outputs_are_pinned():
    outputs = list(_search_grid())
    assert any(found is None for _, found in outputs)
    assert all(any(found is not None for what, found in outputs if what == search)
               for search in ("hindman", "ramsey", "canonical"))
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == PINNED_SEARCH_GRID
