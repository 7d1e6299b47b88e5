"""Acceptance suite: one test per top-level criterion, one PASS/FAIL line each.

Each criterion prints ``CRITERION n: PASS`` (or FAIL) on the real stdout so
the lines survive pytest's capture, then asserts.  Budgeted searches report
exhaustion honestly instead of faking certification.
"""

import itertools
import random
import sys
import time

import pytest

from ormaps.bounds import (
    check_one_cut_guarantee,
    check_two_cut_guarantee,
    genus_lower_bound,
    min_genus,
    one_cut_size_threshold,
    two_cut_size_threshold,
)
from ormaps.connectivity import (
    find_cutsets,
    min_cut,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
    vertex_connectivity_flow,
)
from ormaps.core import canonical_code, genus, maps_isomorphic_bruteforce, walk_vertices
from ormaps.dual import dual
from ormaps.search import (
    SearchBudget,
    enumerate_connected_maps,
    parse_witness_spec,
    search_empty_9_cycle,
    search_witness,
    verify_remark24,
)
from ormaps.surgery import (
    SurgeryError,
    build_one_cut_witness,
    find_disjoint_triangles,
    glue_faces,
    insert_cycle_in_triangles,
    one_cut_witness_from_triangulation,
    stacked_triangulation,
)


def _report(n: int, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


# -- shared expensive artifacts -------------------------------------------------------


@pytest.fixture(scope="module")
def corpus16():
    """Every connected map with at most 8 edges (16 darts)."""
    return enumerate_connected_maps(8)


@pytest.fixture(scope="module")
def witness_runs():
    """The four bounded witness searches; reused by criteria 3 and 4."""
    specs = {
        "fig2": "c=2; pair-sum=7; dual=simple,has-2-cut; pair=shares-two-vertices; "
                "max-vertices=6; max-edges=15",
        "fig2-complement": "c=2; pair-sum=6; dual=simple,has-2-cut; "
                           "pair=shares-two-vertices; max-vertices=6; max-edges=15",
        "fig3": "c=4; pair-sum=10; dual=simple,has-2-cut; pair=shares-two-vertices; "
                "max-vertices=8; max-edges=20",
        "fig3-complement": "c=4; pair-sum=9; dual=simple,has-2-cut; "
                           "pair=shares-two-vertices; max-vertices=8; max-edges=20",
    }
    out = {}
    for name, text in specs.items():
        t0 = time.monotonic()
        outcome = search_witness(parse_witness_spec(text))
        out[name] = (outcome, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def delta1_witnesses():
    return {c: build_one_cut_witness(c) for c in (1, 3)}


# -- criterion 1: the ten exhaustive small-map certifications -------------------------


def test_criterion_1_remark24_certifications():
    budget = SearchBudget(max_nodes=20_000_000)
    t0 = time.monotonic()
    report = verify_remark24(budget=budget)
    elapsed = time.monotonic() - t0

    failures = []
    for c in report.cases:
        if c.holds is False:
            failures.append(f"case {c.case} FAILS: {c.detail}")
    certified = [c.case for c in report.cases if c.status == "certified"]
    exhausted = [c.case for c in report.cases if c.status == "exhausted"]
    # every case must certify outright within the default budget
    for label in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"):
        if label not in certified:
            failures.append(f"case {label} did not certify")
    for c in report.cases:
        if c.case in ("iii", "v"):
            if str(13 if c.case == "iii" else 12) not in c.claim:
                failures.append(f"case {c.case} claim lost its edge bound: {c.claim}")

    ok = not failures and elapsed < 3600
    _report(
        1,
        ok,
        f"certified={','.join(certified)}"
        + (f" exhausted-with-counts={','.join(exhausted)}" if exhausted else "")
        + f" in {elapsed:.0f}s",
    )
    assert not failures, failures
    assert elapsed < 3600


# -- criterion 2: the two deterministic dual-1-cut witness constructions --------------


def test_criterion_2_one_cut_witnesses(delta1_witnesses):
    failures = []
    t0 = time.monotonic()
    for c, outcome in delta1_witnesses.items():
        m = outcome.map
        if vertex_connectivity(m) != c:
            failures.append(f"c={c}: connectivity is {vertex_connectivity(m)}")
        rep = dual(m)
        if not rep.simple:
            failures.append(f"c={c}: dual verdict {rep.verdict}")
        sizes = sorted(f.size for f in m.faces)
        big = one_cut_size_threshold(c)
        if sizes[-1] != big or any(s != 3 for s in sizes[:-1]):
            failures.append(f"c={c}: face sizes {sizes}, wanted triangles plus one {big}-gon")
        kappa_dual = vertex_connectivity(rep.dual)
        if kappa_dual != 1:
            failures.append(f"c={c}: kappa(dual)={kappa_dual}, wanted a cut vertex")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120
    _report(2, ok, f"c=1 and c=3 built and checked in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120  # tolerance: one minute per construction


# -- criterion 3: bounded searches for the two doubly intersecting witnesses ----------


def test_criterion_3_witness_searches(witness_runs):
    failures = []
    for name in ("fig2", "fig3"):
        outcome, elapsed = witness_runs[name]
        if outcome.map is None:
            failures.append(f"{name}: no witness found")
            continue
        m = outcome.map
        spec_c = 2 if name == "fig2" else 4
        pair_sum = 7 if name == "fig2" else 10
        if vertex_connectivity(m) < spec_c:
            failures.append(f"{name}: connectivity below {spec_c}")
        rep = dual(m)
        if not rep.simple:
            failures.append(f"{name}: dual not simple")
        kappa_dual = vertex_connectivity(rep.dual)
        if kappa_dual > 2:
            failures.append(f"{name}: kappa(dual)={kappa_dual}, wanted a 2-cut")
        pair_found = False
        for f1, f2 in itertools.combinations(m.faces, 2):
            if f1.size + f2.size != pair_sum:
                continue
            shared = set(walk_vertices(m, f1.darts)) & set(walk_vertices(m, f2.darts))
            if len(shared) < 2:
                continue
            if all(f.size == 3 for f in m.faces if f.index not in (f1.index, f2.index)):
                pair_found = True
                break
        if not pair_found:
            failures.append(f"{name}: no twice-meeting face pair summing to {pair_sum} "
                            "with all other faces triangular")
        if elapsed > 1800:
            failures.append(f"{name}: took {elapsed:.0f}s, over the 30-minute budget")
    for name in ("fig2-complement", "fig3-complement"):
        outcome, elapsed = witness_runs[name]
        if outcome.map is not None:
            failures.append(f"{name}: unexpectedly found a map")
        if not outcome.complete:
            failures.append(f"{name}: sweep did not complete")
        if elapsed > 1800:
            failures.append(f"{name}: took {elapsed:.0f}s, over the 30-minute budget")
    total = sum(t for _, t in witness_runs.values())
    ok = not failures
    _report(3, ok, f"two found, two complements certified empty, {total:.0f}s total")
    assert not failures, failures


# -- criterion 4: threshold guarantees never contradict measured dual cuts ------------


def test_criterion_4_threshold_checker_soundness(corpus16, delta1_witnesses, witness_runs):
    pool = list(corpus16)
    for outcome in delta1_witnesses.values():
        pool.append(outcome.map)
    for name in ("fig2", "fig3"):
        found = witness_runs[name][0].map
        if found is not None:
            pool.append(found)

    t0 = time.monotonic()
    checked = 0
    counterexamples = []
    for m in pool:
        c = vertex_connectivity(m)
        if c < 1:
            continue
        try:
            one = check_one_cut_guarantee(m, c)
            two = check_two_cut_guarantee(m, c)
        except ValueError:
            continue  # hypotheses unmet (e.g. dual not simple): out of scope
        checked += 1
        kappa_dual = vertex_connectivity(dual(m).dual)
        if one.guaranteed and kappa_dual < 2:
            counterexamples.append((m, "one-cut", kappa_dual))
        if two.guaranteed and kappa_dual < 3:
            counterexamples.append((m, "two-cut", kappa_dual))
    elapsed = time.monotonic() - t0
    ok = not counterexamples and checked > 0 and elapsed < 1800
    _report(4, ok, f"{checked} eligible maps swept, 0 counterexamples, {elapsed:.0f}s")
    assert checked > 0
    assert not counterexamples, counterexamples
    assert elapsed < 1800


# -- criterion 5: the closed-form bounds and both threshold tables --------------------


def test_criterion_5_bounds_and_tables():
    failures = []
    if min_genus(7) != 2:
        failures.append(f"min_genus(7) = {min_genus(7)}")
    if genus_lower_bound(7, 0, 11) != 4:
        failures.append(f"genus_lower_bound(7, 0, 11) = {genus_lower_bound(7, 0, 11)}")
    expected_one = {1: 6, 2: 9, 3: 9, 4: 10, 5: 10, 6: 12, 7: 14, 8: 15}
    expected_two = {1: 7, 2: 7, 3: 10, 4: 10, 5: 12, 6: 12, 7: 12, 8: 12}
    for c in range(1, 9):
        if one_cut_size_threshold(c) != expected_one[c]:
            failures.append(f"min1f({c}) = {one_cut_size_threshold(c)}")
        if two_cut_size_threshold(c) != expected_two[c]:
            failures.append(f"min2f({c}) = {two_cut_size_threshold(c)}")
    ok = not failures
    _report(5, ok, "closed-form values and both tables on c=1..8")
    assert not failures, failures


# -- criterion 6: cycle insertion bookkeeping and glue additivity ---------------------


def test_criterion_6_surgery_bookkeeping(corpus16):
    t0 = time.monotonic()
    failures = []

    host = stacked_triangulation(33)
    found = find_disjoint_triangles(host)
    assert found is not None
    triangles, pivots = found
    result = insert_cycle_in_triangles(host, triangles, pivots)
    out = result.map
    if out.edge_count - host.edge_count != 6:
        failures.append(f"edge delta {out.edge_count - host.edge_count}")
    if len(out.faces) - len(host.faces) != -4:
        failures.append(f"face delta {len(out.faces) - len(host.faces)}")
    if genus(out) - genus(host) != 5:
        failures.append(f"genus delta {genus(out) - genus(host)}")
    sizes = sorted(f.size for f in out.faces)
    if sizes[-1] != 24 or sizes[-2] != 6 or any(s != 3 for s in sizes[:-2]):
        failures.append(f"face sizes {sizes[-3:]}..., wanted one 24-gon and one 6-gon")
    big = next(f for f in out.faces if f.size == 24)
    hexa = next(f for f in out.faces if f.size == 6)
    # the hexagon is edge-disjoint from the host: all six edges are new,
    # running between pivots that were non-adjacent before
    if set(walk_vertices(out, hexa.darts)) != set(pivots):
        failures.append("the 6-gon does not run through the six pivots")
    for d in hexa.darts:
        u, w = out.vertex_of[d], out.vertex_of[out.reverse[d]]
        if w in host.adjacency[u]:
            failures.append(f"6-gon edge {u}-{w} already existed in the host")
        if out.face_index_of[out.reverse[d]] != big.index:
            failures.append("a 6-gon edge does not border the 24-gon")

    # genus additivity over 100 random gluings of corpus maps
    def simple_cycle_faces(m):
        out = []
        for f in m.faces:
            verts = walk_vertices(m, f.darts)
            if f.size >= 3 and len(set(verts)) == f.size:
                out.append(f)
        return out

    pool = [(m, f) for m in corpus16 if m.edge_count <= 6 for f in simple_cycle_faces(m)]
    by_size = {}
    for m, f in pool:
        by_size.setdefault(f.size, []).append((m, f))
    rng = random.Random(20260819)
    glued = 0
    while glued < 100:
        size = rng.choice([s for s, entries in by_size.items() if len(entries) >= 1])
        a, fa = rng.choice(by_size[size])
        b, fb = rng.choice(by_size[size])
        res = glue_faces(
            a, b, fa.index, fb.index, rng.randrange(size), rng.random() < 0.5, require_simple=False
        )
        if genus(res.map) != genus(a) + genus(b):
            failures.append(f"gluing {size}-gons: genus {genus(res.map)} "
                            f"!= {genus(a)} + {genus(b)}")
            break
        glued += 1

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    _report(6, ok, f"cycle insertion deltas exact; {glued} gluings additive; {elapsed:.0f}s")
    assert not failures, failures
    assert elapsed < 300


# -- criterion 7: cross-validation of dual, connectivity, and isomorphism -------------


def test_criterion_7_oracle_cross_checks(corpus16):
    t0 = time.monotonic()
    failures = []

    for m in corpus16:
        rep = dual(m)
        back = dual(rep.dual).dual
        if canonical_code(back) != canonical_code(m):
            failures.append(f"dual involution broke on a {m.edge_count}-edge map")
            break

    for m in corpus16:
        if m.vertex_count <= 10:  # subset deletion stays quick up to here
            adj = m.adjacency
            if vertex_connectivity_flow(adj) != vertex_connectivity_bruteforce(adj):
                failures.append("flow and brute-force connectivity disagree")
                break

    for m in corpus16:
        if m.vertex_count >= 2:
            adj = m.adjacency
            kappa = vertex_connectivity(adj)
            oracle = min((tuple(sorted(c)) for c in find_cutsets(adj, kappa)), default=None)
            if min_cut(adj) != (kappa, oracle):
                failures.append("flow min cut disagrees with the subset-listing oracle")
                break

    small = [m for m in corpus16 if m.dart_count <= 12]
    for a, b in itertools.combinations(small, 2):
        canon = canonical_code(a) == canonical_code(b)
        brute = maps_isomorphic_bruteforce(a, b)
        if canon != brute:
            failures.append("canonical equality disagrees with brute-force isomorphism")
            break
    for m in small:
        if not maps_isomorphic_bruteforce(m, m):
            failures.append("brute-force isomorphism rejects identity")
            break

    elapsed = time.monotonic() - t0
    ok = not failures
    _report(
        7,
        ok,
        f"{len(corpus16)} duals and min cuts, {len(small)} maps pairwise iso-checked, "
        f"{elapsed:.0f}s",
    )
    assert not failures, failures


# -- criterion 8: the declared-irreproducible surface behaves as documented -----------


def test_criterion_8_declared_limits():
    failures = []

    # the capping pipeline runs end to end on a user-style triangulation ...
    host = stacked_triangulation(33)
    outcome = one_cut_witness_from_triangulation(host)
    if genus(outcome.map) != genus(host) + 6:
        failures.append("pipeline did not add six handles on a valid host")

    # ... and rejects hosts that are not triangulations
    from conftest import make_cube

    try:
        one_cut_witness_from_triangulation(make_cube())
    except SurgeryError as exc:
        if "triangulation" not in str(exc):
            failures.append(f"wrong rejection reason: {exc}")
    else:
        failures.append("a quadrangulation was accepted as a triangulation host")

    # witness families beyond the built-in constructions raise instead of guessing
    try:
        build_one_cut_witness(4)
    except SurgeryError:
        pass
    else:
        failures.append("an unsupported connectivity built a witness silently")

    # the optional long-running search runs under a budget and reports honestly
    nine = search_empty_9_cycle(SearchBudget(max_nodes=5_000))
    if nine.complete:
        failures.append("a 5000-node budget cannot complete the 9-cycle search")
    if nine.nodes == 0:
        failures.append("the 9-cycle search did no work")

    ok = not failures
    _report(8, ok, "pipeline gates, unsupported-family errors, budgeted optional search")
    assert not failures, failures
