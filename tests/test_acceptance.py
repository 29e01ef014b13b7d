"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS/FAIL line into the terminal summary (see
conftest) carrying the measured worst case and the runtime, then asserts.
Random draws are seeded, so the whole file is reproducible.
"""

import itertools
import time
from fractions import Fraction
from math import ceil, floor, gcd

import numpy as np

from conftest import record_acceptance
from sklab import invtensor, mukai, poisson, residues, sklyanin, walls
from sklab.theta import (CurveModulus, ThetaBasis, theta_symmetry_constants,
                         theta_zero_count)

OMEGA = 0.2 + 1.3j


def _criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {num:2d} [{status}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_theta_functional_equations():
    t0 = time.perf_counter()
    modulus = CurveModulus(OMEGA)
    rng = np.random.default_rng(101)
    worst = 0.0
    counts_ok = True
    for d in (3, 5, 7, 9):
        basis = ThetaBasis(d, modulus)
        for _ in range(100):
            m = int(rng.integers(0, d))
            z = complex(rng.uniform(-1, 1) + rng.uniform(-1, 1) * OMEGA)
            v = basis.eval(m, z)
            lhs = basis.eval(m, z + 1.0 / d)
            rhs = -np.exp(2j * np.pi * m / d) * v
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            lhs = basis.eval(m, z + OMEGA)
            rhs = -np.exp(-1j * np.pi * d * OMEGA - 2j * np.pi * d * z) * v
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        for m in range(d):
            if theta_zero_count(basis, m) != d:
                counts_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and counts_ok and elapsed < 5.0
    _criterion(1, ok,
               f"theta functional equations, d in 3/5/7/9, 100 z each: "
               f"worst residual {worst:.2e} (< 1e-10), zero counts "
               f"{'all d' if counts_ok else 'WRONG'}, {elapsed:.2f}s (< 5s)")


def test_criterion_02_theta_symmetry():
    modulus = CurveModulus(OMEGA)
    rng = np.random.default_rng(102)
    worst_fit = worst_unity = 0.0
    for d in (3, 5, 7):
        basis = ThetaBasis(d, modulus)
        for _ in range(20):
            x = sklyanin.sample_generic_x(d, modulus, rng)
            _, b, fit = theta_symmetry_constants(basis, x)
            worst_fit = max(worst_fit, fit)
            worst_unity = max(worst_unity, abs(b ** d - 1.0))
    ok = worst_fit < 1e-8 and worst_unity < 1e-8
    _criterion(2, ok,
               f"reflection symmetry, 20 x per d in 3/5/7: fit "
               f"{worst_fit:.2e} (< 1e-8), |b^d - 1| {worst_unity:.2e} "
               f"(< 1e-8)")


def test_criterion_03_relation_space_rank():
    t0 = time.perf_counter()
    modulus = CurveModulus(OMEGA)
    rng = np.random.default_rng(103)
    worst_gap = float("inf")
    ranks_ok = True
    pairs = 0
    for d in range(2, 10):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            pairs += 1
            expected = d * (d - 1) // 2
            for _ in range(20):
                x = sklyanin.sample_generic_x(d, modulus, rng)
                system = sklyanin.build_relations(
                    sklyanin.AlgebraParams(d, r, x, modulus))
                space = sklyanin.relation_space(system)
                if space.shape[1] != expected:
                    ranks_ok = False
                svals = sklyanin.singular_values(system)
                if svals[expected] > 0:
                    worst_gap = min(worst_gap,
                                    svals[expected - 1] / svals[expected])
    elapsed = time.perf_counter() - t0
    ok = ranks_ok and worst_gap > 1e3 and elapsed < 30.0
    _criterion(3, ok,
               f"rank d(d-1)/2 for {pairs} coprime (d, r), d <= 9, 20 x "
               f"each: ranks {'all correct' if ranks_ok else 'WRONG'}, "
               f"smallest gap {worst_gap:.1e} (> 1e3), {elapsed:.1f}s "
               f"(< 30s)")


def test_criterion_04_substitution_isomorphism():
    modulus = CurveModulus(OMEGA)
    rng = np.random.default_rng(104)
    worst_pos = 0.0
    for d, r, rp in ((5, 2, 3), (7, 2, 4), (7, 3, 5), (8, 3, 3), (9, 2, 5)):
        x = sklyanin.sample_generic_x(d, modulus, rng)
        dist = sklyanin.check_substitution_isomorphism(d, r, rp, x, modulus)
        worst_pos = max(worst_pos, dist)
    worst_neg = float("inf")
    for d, r, rp in ((5, 2, 2), (7, 2, 2), (8, 3, 5), (9, 2, 2)):
        assert (r * rp) % d != 1
        x = sklyanin.sample_generic_x(d, modulus, rng)
        dist = sklyanin.substitution_distance(d, r, rp, x, modulus)
        worst_neg = min(worst_neg, dist)
    ok = worst_pos < 1e-8 and worst_neg > 0.1
    _criterion(4, ok,
               f"substitution isomorphism, 5 congruent cases: worst "
               f"distance {worst_pos:.2e} (< 1e-8); negative controls "
               f">= {worst_neg:.2f} (> 0.1)")


def test_criterion_05_poisson_axioms():
    t0 = time.perf_counter()
    modulus = CurveModulus(OMEGA)
    worst_tangent = worst_jac = worst_equi = 0.0
    tensors = {}
    for d in (3, 4, 5):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            tensor = poisson.extract_bracket(d, r, modulus)
            tensors[(d, r)] = tensor
            worst_tangent = max(worst_tangent, tensor.richardson_error)
            worst_jac = max(worst_jac, poisson.jacobi_check(tensor, 100,
                                                            seed=105))
    for (d, r), tensor in tensors.items():
        r_prime = pow(r, -1, d) if d > 1 else 0
        partner = tensors[(d, r_prime)]
        _, dev = poisson.scale_match_deviation(
            poisson.substituted_tensor(tensor), partner)
        # the genuine tensors carry unit-order entries, so the entrywise
        # bound is absolute; for r = d - 1 both sides vanish and only
        # extraction noise remains, which the rescaling keeps tiny
        dev_abs = dev * np.abs(partner.pi).max()
        worst_equi = max(worst_equi, dev_abs)
    elapsed = time.perf_counter() - t0
    ok = (worst_tangent < 1e-6 and worst_jac < 1e-6 and worst_equi < 1e-6
          and elapsed < 60.0)
    _criterion(5, ok,
               f"poisson axioms, all coprime r for d in 3/4/5: tangent "
               f"residual {worst_tangent:.2e}, jacobi {worst_jac:.2e}, "
               f"equivariance {worst_equi:.2e} (all < 1e-6), "
               f"{elapsed:.1f}s (< 60s)")


def _random_object(rng):
    if rng.random() < 0.25:
        return mukai.Torsion(int(rng.integers(-4, 5)))
    while True:
        r = int(rng.integers(1, 7))
        d = int(rng.integers(-9, 10))
        if gcd(r, d) == 1 and (d != 0 or r == 1):
            return mukai.Bundle(r, d, int(rng.integers(-4, 5)))


def _random_word(rng, max_len=10):
    letters = ["S", "S-", "R", "R-"]
    n = int(rng.integers(0, max_len + 1))
    return mukai.GroupWord.parse(" ".join(letters[int(rng.integers(0, 4))]
                                          for _ in range(n)))


def test_criterion_06_central_extension_calculus():
    rng = np.random.default_rng(106)
    braid = mukai.words_equal(mukai.GroupWord.parse("R S R S R S"),
                              mukai.GroupWord.parse("S S"))
    s4 = mukai.GroupWord.parse("S S S S")
    shift_ok = True
    for _ in range(50):
        obj = _random_object(rng)
        moved = mukai.act_word(obj, s4)
        if moved != mukai.DerivedObject(obj.kind, obj.rank, obj.degree,
                                        obj.shift - 2):
            shift_ok = False
    compat_ok = True
    for _ in range(500):
        obj = _random_object(rng)
        word = _random_word(rng)
        m = mukai.word_matrix(word)
        r, d = mukai.signed_kvector(obj)
        want = (m[0][0] * r + m[0][1] * d, m[1][0] * r + m[1][1] * d)
        if mukai.signed_kvector(mukai.act_word(obj, word)) != want:
            compat_ok = False
    ok = braid and shift_ok and compat_ok
    _criterion(6, ok,
               f"central extension calculus: braid relation "
               f"{'holds' if braid else 'FAILS'}, S^4 shift on 50 objects "
               f"{'exact' if shift_ok else 'FAILS'}, K-compatibility on "
               f"500 pairs {'exact' if compat_ok else 'FAILS'}")


S_MAT = ((0, 1), (-1, 0))
S_INV = ((0, -1), (1, 0))
R_MAT = ((1, 0), (1, 1))
R_INV = ((1, 0), (-1, 1))


def _bfs_reaches(src, dst, bound):
    """Breadth-first search over left products of the four generators.

    States are 2x2 integer matrices with entries capped at the bound;
    generator multiplication preserves the determinant, so the search
    space is finite.  Returns True when dst is reached, False when the
    bounded component of src is exhausted first.
    """
    if src == dst:
        return True
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for state in frontier:
            for g in (S_MAT, S_INV, R_MAT, R_INV):
                moved = (
                    (g[0][0] * state[0][0] + g[0][1] * state[1][0],
                     g[0][0] * state[0][1] + g[0][1] * state[1][1]),
                    (g[1][0] * state[0][0] + g[1][1] * state[1][0],
                     g[1][0] * state[0][1] + g[1][1] * state[1][1]),
                )
                if moved == dst:
                    return True
                if moved in seen:
                    continue
                if max(abs(x) for row in moved for x in row) > bound:
                    continue
                seen.add(moved)
                nxt.append(moved)
        frontier = nxt
    return False


def _pair_matrix(pair):
    (r1, d1), (r2, d2) = pair
    return ((r1, r2), (d1, d2))


def test_criterion_07_orbit_classification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    vectors = [(r, d) for r in range(-5, 6) for d in range(-5, 6)
               if (r, d) != (0, 0) and gcd(abs(r), abs(d)) == 1]
    pairs = []
    for v1, v2 in itertools.product(vectors, repeat=2):
        det = v1[0] * v2[1] - v1[1] * v2[0]
        if 0 < abs(det) <= 7:
            pairs.append((v1, v2))
    buckets = {}
    for pair in pairs:
        inv = mukai.orbit_invariants(mukai.KVector(*pair[0]),
                                     mukai.KVector(*pair[1]))
        buckets.setdefault((inv.det, inv.alpha), []).append(pair)

    # equal invariants -> a transporter exists and does map the pair
    forward_ok = True
    for members in buckets.values():
        rep = members[0]
        rep_k = (mukai.KVector(*rep[0]), mukai.KVector(*rep[1]))
        for member in members:
            word = mukai.solve_transporter(
                rep_k, (mukai.KVector(*member[0]),
                        mukai.KVector(*member[1])))
            m = mukai.word_matrix(word)
            mapped = tuple(
                (m[0][0] * v[0] + m[0][1] * v[1],
                 m[1][0] * v[0] + m[1][1] * v[1]) for v in rep)
            if mapped != member:
                forward_ok = False

    # different invariants -> the solver must refuse
    keys = sorted(buckets)
    reverse_ok = True
    for _ in range(250):
        k1, k2 = rng.choice(len(keys), size=2, replace=False)
        p1 = buckets[keys[k1]][int(rng.integers(len(buckets[keys[k1]])))]
        p2 = buckets[keys[k2]][int(rng.integers(len(buckets[keys[k2]])))]
        try:
            mukai.solve_transporter(
                (mukai.KVector(*p1[0]), mukai.KVector(*p1[1])),
                (mukai.KVector(*p2[0]), mukai.KVector(*p2[1])))
            reverse_ok = False
        except mukai.TransporterError:
            pass

    # independent brute force: bounded BFS over generator products
    bfs_ok = True
    for _ in range(15):
        members = buckets[keys[int(rng.integers(len(keys)))]]
        i, j = rng.integers(0, len(members), size=2)
        src = _pair_matrix(members[int(i)])
        dst = _pair_matrix(members[int(j)])
        found = any(_bfs_reaches(src, dst, bound)
                    for bound in (32, 128))
        if not found:
            bfs_ok = False
    for _ in range(15):
        k1, k2 = rng.choice(len(keys), size=2, replace=False)
        p1 = buckets[keys[k1]][int(rng.integers(len(buckets[keys[k1]])))]
        p2 = buckets[keys[k2]][int(rng.integers(len(buckets[keys[k2]])))]
        if _bfs_reaches(_pair_matrix(p1), _pair_matrix(p2), 32):
            bfs_ok = False
    elapsed = time.perf_counter() - t0
    ok = forward_ok and reverse_ok and bfs_ok and elapsed < 60.0
    _criterion(7, ok,
               f"orbit classification over {len(pairs)} primitive pairs "
               f"(|det| <= 7, {len(buckets)} classes): transporters "
               f"{'all map' if forward_ok else 'FAIL'}, refusals "
               f"{'all raised' if reverse_ok else 'MISSING'}, BFS oracle "
               f"{'agrees' if bfs_ok else 'DISAGREES'}, {elapsed:.1f}s "
               f"(< 60s)")


def test_criterion_08_congruence_solvers():
    ok = True
    for d in range(2, 31):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            _, companion = mukai.solve_T_r(mukai.Bundle(r, d, 0))
            if (r * companion.rank) % d != (-1) % d:
                ok = False
            _, r_dp = mukai.solve_U_r(mukai.Bundle(r, d, 0))
            if (r * r_dp) % d != 1 % d:
                ok = False
    _, companion = mukai.solve_T_r(mukai.Bundle(2, 7, 0))
    instance_ok = companion.rank == 3
    ok = ok and instance_ok
    _criterion(8, ok,
               f"congruence solvers for all coprime (r, d), d <= 30: "
               f"r*r' = -1 and r''*r = 1 {'hold' if ok else 'FAIL'}; "
               f"(d, r) = (7, 2) gives r' = {companion.rank} (want 3)")


def test_criterion_09_s3_action():
    t0 = time.perf_counter()
    relations_ok = all(residues.check_group_relations(d)
                       for d in range(2, 201))
    fixed_ok = True
    for d in range(2, 201):
        fixed = residues.fixed_points(d)
        rset = residues.residue_set(d)
        for r in rset.members:
            if (r in fixed["phi_fixed"]) != ((r * r + r + 1) % d == 0):
                fixed_ok = False
        if d % 2:
            want = tuple(r for r in ((d - 2) % d,) if r in rset)
            if fixed["phibeta_fixed"] != want:
                fixed_ok = False
    elapsed = time.perf_counter() - t0
    ok = relations_ok and fixed_ok and elapsed < 5.0
    _criterion(9, ok,
               f"S3 action on residues, d <= 200: relations "
               f"{'hold pointwise' if relations_ok else 'FAIL'}, fixed "
               f"sets {'match congruences' if fixed_ok else 'WRONG'}, "
               f"{elapsed:.2f}s (< 5s)")


def _oracle_walls(t, lo, hi, bound=30, grid=6):
    """Sign-change scan of the slope difference, cell by cell.

    For each subtriple cell and each dsum' with |dsum'| <= bound the
    difference mu_sub(tau) - tau is affine in tau; the scan samples it on
    a rational grid and recovers each bracketed root exactly from the
    secant through the sign change.  Cells where the difference vanishes
    identically are collected separately (degeneration directions).
    """
    walls_found = {}
    always_zero = set()
    cells = [(a, b) for a in range(t.r1 + 1) for b in range(t.r2 + 1)
             if (a, b) not in ((0, 0), (t.r1, t.r2))]
    for r1p, r2p in cells:
        for dsp in range(-bound, bound + 1):
            vals = []
            for k in range(grid + 1):
                tau = lo + Fraction(k, grid) * (hi - lo)
                sigma = Fraction(tau * (t.r1 + t.r2) - t.dsum, t.r2)
                f = Fraction(dsp + sigma * r2p, r1p + r2p) - tau
                vals.append((tau, f))
            if all(f == 0 for _, f in vals):
                always_zero.add((r1p, r2p, dsp))
                continue
            for (ta, fa), (tb, fb) in zip(vals, vals[1:]):
                root = None
                if fa == 0:
                    root = ta
                elif fb != 0 and (fa < 0) != (fb < 0):
                    root = ta - fa * (tb - ta) / (fb - fa)
                elif fb == 0 and tb == hi:
                    pass  # endpoint root, outside the open interval
                if root is not None and lo < root < hi:
                    walls_found.setdefault(root, set()).add((r1p, r2p, dsp))
    return walls_found, always_zero


def test_criterion_10_walls_against_oracle():
    rng = np.random.default_rng(110)
    agree = True
    shift_ok = True
    for trial in range(50):
        r1 = int(rng.integers(1, 5))
        r2 = int(rng.integers(1, 5))
        d1 = int(rng.integers(-2, 3))
        d2 = int(rng.integers(-2, 3))
        k1, k2 = sorted(rng.choice(range(-7, 8), size=2, replace=False))
        lo, hi = Fraction(int(k1), 8), Fraction(int(k2), 8)
        t = walls.TripleInvariants(r1, r2, d1, d2)
        got = walls.candidate_walls(t, lo, hi)
        want, zero_cells = _oracle_walls(t, lo, hi)
        got_map = {w.tau: set(w.witnesses) for w in got}
        if got_map != want:
            agree = False
        # the identically-critical directions are exactly the declared
        # degeneration cells that fall inside the scanned band
        degen = set(walls.degeneration_cells(t))
        if zero_cells != {c for c in degen if abs(c[2]) <= 30}:
            agree = False

        shift = int(rng.integers(-3, 4))
        moved = walls.candidate_walls(
            walls.TripleInvariants(r1, r2, d1 + r1 * shift,
                                   d2 + r2 * shift),
            lo + shift, hi + shift)
        if [w.tau for w in moved] != [w.tau + shift for w in got]:
            shift_ok = False
        else:
            for w_new, w_old in zip(moved, got):
                expect = tuple((a, b, c + (a + b) * shift)
                               for a, b, c in w_old.witnesses)
                if w_new.witnesses != expect:
                    shift_ok = False
    ok = agree and shift_ok
    _criterion(10, ok,
               f"walls on 50 random triples (ranks <= 4): sign-change "
               f"oracle {'matches exactly' if agree else 'DISAGREES'}, "
               f"tensoring shift {'exact' if shift_ok else 'BROKEN'}")


def test_criterion_11_tensor_conditions():
    t0 = time.perf_counter()
    gl_ok = True
    for r1 in range(1, 4):
        for r2 in range(1, 4):
            rep = invtensor.gl_pair_rep(r1, r2)
            t = invtensor.gl_pair_tensor(r1, r2)
            if invtensor.check_invariance(rep, t) != 0:
                gl_ok = False
            star = invtensor.t_star(rep, t)
            if any(x != 0 for row in star for x in row):
                gl_ok = False
    gsp_dim = len(invtensor.solve_admissible(invtensor.gsp_rep(4)))
    sl2 = invtensor.sl2_rep()
    before = len(invtensor.solve_admissible(sl2))
    after = len(invtensor.solve_admissible(
        invtensor.augment_with_center(sl2)))
    elapsed = time.perf_counter() - t0
    ok = (gl_ok and gsp_dim == 1 and before == 0 and after >= 1
          and elapsed < 10.0)
    _criterion(11, ok,
               f"invariant tensors: gl pairs r1, r2 <= 3 all give t_* = 0 "
               f"{'exactly' if gl_ok else 'FAIL'}; gsp4 dim {gsp_dim} "
               f"(want 1); sl2 dim {before} -> {after} after center; "
               f"{elapsed:.1f}s (< 10s)")
