"""End-to-end acceptance checks.

Every check is exact integer arithmetic, no tolerances anywhere.  Each test
prints a single "criterion N: PASS/FAIL" line and then asserts, so a plain
pytest run doubles as the acceptance report.  Stated runtime bounds are
asserted with time.monotonic.
"""

import random
import time

from dualnets import constructors, latin, nets
from dualnets.cubic_group import CurveGroup, find_fermat_prime_for_order
from dualnets.curves import (HomPoly, fermat_cubic, hessian, j_invariant,
                             pencil_crossratio_check, proportional)
from dualnets.demos import cubic_j0_identities
from dualnets.plane import (PValue, all_points, anharmonic_orbit, apply_point,
                            cross_ratio, normalize, perspectivity,
                            u_from_quartic, u_invariant)
from util import (abelianized_product_nonzero_brute, dual_net_partitions_brute,
                  fermat_points_brute, is_center_brute, is_dual_net_brute)


def _report(num, failures):
    print("criterion %d: %s" % (num, "PASS" if not failures else "FAIL"))
    assert not failures, "criterion %d: %s" % (num, "; ".join(failures))


def test_criterion_01_conic_line_families():
    failures = []
    for n, p, c in ((5, 11, 1), (7, 29, 2), (9, 19, 1)):
        t0 = time.monotonic()
        label = "conic-line n=%d p=%d" % (n, p)
        net = constructors.conic_line(n, p, c)
        if not isinstance(net, nets.DualNet):
            failures.append(label + " did not verify")
            continue
        T = (0, 0, 1)
        if T not in nets.find_centers(net):
            failures.append(label + " misses the center (0,0,1)")
            continue
        lines = nets.lines_through_center(net, T)
        if len(lines) != n:
            failures.append(label + " has %d full lines, wants %d" % (len(lines), n))
        minus_one = PValue.of(p - 1, p)
        for line, pts in lines.items():
            if cross_ratio(T, pts[0], pts[1], pts[2], p) != minus_one:
                failures.append("%s cross-ratio differs from -1 on %r" % (label, line))
                break
        M = perspectivity(T, (0, 0, 1), p - 1, p)
        image = {normalize(apply_point(M, P, p), p) for P in net.components[1]}
        if image != set(net.components[2]):
            failures.append(label + " homology does not carry component 2 to 3")
        if latin.transversal_search(latin.from_net(net)) is None:
            failures.append(label + " latin square has no transversal")
        elapsed = time.monotonic() - t0
        if elapsed >= 1.0:
            failures.append("%s took %.2fs, bound is 1s" % (label, elapsed))
    _report(1, failures)


def _fermat_coset_checks(n, p, failures):
    label = "fermat coset n=%d p=%d" % (n, p)
    net = constructors.algebraic_fermat(n, p)
    if not isinstance(net, nets.DualNet):
        failures.append(label + " did not verify")
        return
    centers = nets.find_centers(net)
    if (0, 0, 1) not in centers:
        failures.append(label + " misses the center (0,0,1)")
        return
    if not (is_dual_net_brute(net.components, p)
            and is_center_brute(net.components, (0, 0, 1), p)):
        failures.append(label + " fails the exhaustive net or center oracle")
    corners = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    if not centers <= corners:
        failures.append(label + " has a center off the coordinate triangle")
    if len(centers) > 3:
        failures.append(label + " has more than three centers")
    for T in sorted(centers):
        kappa = nets.constant_cross_ratio(net, T)
        if kappa.is_infinity or (kappa.value ** 2 - kappa.value + 1) % p != 0:
            failures.append("%s kappa at %r is not a root of k^2-k+1" % (label, T))


def _fermat_13_has_no_coset_net(failures):
    """Order 3 over GF(13) has no coset net: the constructor must refuse it,
    and an exhaustive search that uses neither the group law nor the
    verifier must confirm the refusal.  A coset net of order 3 takes nine
    points of the cubic, and the cubic has exactly nine there, so the
    search runs over every partition of them into three components."""
    try:
        constructors.algebraic_fermat(3, 13)
    except ValueError as exc:
        if "no subgroup/base point found" not in str(exc):
            failures.append("fermat coset n=3 p=13 raised an unexpected "
                            "ValueError: %s" % exc)
    else:
        failures.append("fermat coset n=3 p=13 built a net, but none exists")
    points = fermat_points_brute(13)
    if len(points) != 9:
        failures.append("the cubic has %d points over GF(13), wants 9" % len(points))
        return
    found = dual_net_partitions_brute(points, 3, 13)
    if len(found) != 4:
        failures.append("oracle found %d nets on the cubic over GF(13), wants 4"
                        % len(found))
    if any(is_center_brute(comps, (0, 0, 1), 13) for comps in found):
        failures.append("oracle found a net on the cubic over GF(13) "
                        "with center (0,0,1)")


def test_criterion_02_fermat_coset_nets():
    t0 = time.monotonic()
    failures = []
    _fermat_13_has_no_coset_net(failures)
    for n in (3, 7):
        p = find_fermat_prime_for_order(n)
        if p is None:
            failures.append("prime scan found no order-%d coset instance" % n)
        else:
            _fermat_coset_checks(n, p, failures)
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append("took %.2fs, bound is 10s" % elapsed)
    _report(2, failures)


def test_criterion_03_negative_center_sweeps():
    failures = []
    cases = [
        ("triangular n=5 p=11", lambda: constructors.triangular_cyclic(5, 11)),
        ("triangular n=7 p=29", lambda: constructors.triangular_cyclic(7, 29)),
        ("tetrahedron m=2 p=13", lambda: constructors.tetrahedron(2, 13)),
    ]
    for label, build in cases:
        t0 = time.monotonic()
        net = build()
        centers = nets.find_centers(net)
        if centers != set():
            failures.append("%s has unexpected centers %r" % (label, sorted(centers)))
        elapsed = time.monotonic() - t0
        if elapsed >= 5.0:
            failures.append("%s took %.2fs, bound is 5s" % (label, elapsed))
    _report(3, failures)


def test_criterion_04_characteristic_pencil():
    t0 = time.monotonic()
    failures = []
    net = constructors.pencil_char_p(5)
    if not (isinstance(net, nets.DualNet) and net.char_exception):
        failures.append("pencil net of order 5 did not verify")
    if len(nets.find_centers(net)) < 1:
        failures.append("pencil net has no perspective center")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append("took %.2fs, bound is 1s" % elapsed)
    _report(4, failures)


def test_criterion_05_pencil_tangent_cross_ratio():
    t0 = time.monotonic()
    failures = []
    p = 13
    F = HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, p)
    G = HomPoly(3, {(1, 1, 1): 1}, p)
    rng = random.Random(5)
    samples = 0
    while samples < 10:
        alpha, beta, alpha2, beta2 = (rng.randrange(1, p) for _ in range(4))
        if (alpha * beta2 - alpha2 * beta) % p == 0:
            continue
        samples += 1
        report = pencil_crossratio_check(F, G, alpha, beta, alpha2, beta2)
        expected = PValue(alpha * beta2, alpha2 * beta, p)
        if len(report["per_point"]) != 9:
            failures.append("pencil base locus is not 9 points")
        if not report["pass"] or report["kappa"] != expected:
            failures.append(
                "tangent cross-ratio mismatch at (%d,%d,%d,%d)"
                % (alpha, beta, alpha2, beta2))
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append("took %.2fs, bound is 1s" % elapsed)
    _report(5, failures)


def test_criterion_06_exact_cubic_identities():
    t0 = time.monotonic()
    failures = []
    p = 101
    rng = random.Random(6)
    for _ in range(50):
        a, b, c, m = (rng.randrange(p) for _ in range(4))
        report = cubic_j0_identities(a, b, c, m, p)
        if not (report["identity1"] and report["identity2"]):
            failures.append("identity fails at (a,b,c,m)=(%d,%d,%d,%d)" % (a, b, c, m))
            break
    for p2, c in ((7, 5), (31, 26)):
        a = (c + 1) * pow(3, -1, p2) % p2
        b2 = (1 - 2 * c) * pow(3, -1, p2) % p2
        b = next(r for r in range(p2) if r * r % p2 == b2)
        report = cubic_j0_identities(a, b, c, 1, p2)
        if report["beta"] != [0, 0, 0, 0]:
            failures.append("corner specialization betas are %r over GF(%d)"
                            % (report["beta"], p2))
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append("took %.2fs, bound is 1s" % elapsed)
    _report(6, failures)


def test_criterion_07_invariant_toolkit():
    failures = []
    p = 13
    ks = [PValue.of(v, p) for v in range(p)] + [PValue.infinity(p)]
    for k in ks:
        orbit = anharmonic_orbit(k)
        if len({u_invariant(x) for x in orbit}) != 1:
            failures.append("u is not constant on the orbit of %r" % k)
    for c in range(p):
        zero = j_invariant(c, p) == PValue.of(0, p)
        if zero != ((c * c - c + 1) % p == 0):
            failures.append("j(%d) zero-locus mismatch over GF(13)" % c)
    for q in (7, 13, 19):
        xyzq = HomPoly(3, {(1, 1, 1): 1}, q)
        if not proportional(hessian(fermat_cubic(q)), xyzq):
            failures.append("Hessian of the Fermat cubic is not XYZ over GF(%d)" % q)
    rng = random.Random(7)
    q = 101
    for _ in range(10):
        roots = rng.sample(range(q), 4)
        poly = [1]
        for r in roots:
            poly = [((poly[i - 1] if i else 0) - r * (poly[i] if i < len(poly) else 0)) % q
                    for i in range(len(poly) + 1)]
        k = cross_ratio(*(normalize((1, t, 0), q) for t in roots), q)
        if u_from_quartic(*poly, q) != u_invariant(k):
            failures.append("quartic u mismatch at roots %r" % (roots,))
    _report(7, failures)


def test_criterion_08_hesse_quadruple():
    t0 = time.monotonic()
    failures = []
    net = constructors.hesse_4net(13)
    if not (isinstance(net, nets.DualNet) and net.k == 4 and net.n == 3):
        failures.append("the dual Hesse configuration is not a 4-net of order 3")
    kappa = nets.crossratio_4net(net)
    if kappa != PValue.of(10, 13):
        failures.append("4-net cross-ratio is %r, wants 10" % kappa)
    for i in range(4):
        sub = nets.derived_net(net, i)
        if not isinstance(sub, nets.DualNet):
            failures.append("derived 3-net %d does not verify" % i)
        elif nets.classify(sub)["tag"] != "proper-algebraic":
            failures.append("derived 3-net %d classifies as %r"
                            % (i, nets.classify(sub)["tag"]))
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append("took %.2fs, bound is 1s" % elapsed)
    _report(8, failures)


def test_criterion_09_chord_tangent_group():
    failures = []
    group = CurveGroup(13)
    O = group.O
    pts = group.points
    for P in pts:
        if group.add(O, P) != P or group.add(P, O) != P:
            failures.append("identity fails at %r" % (P,))
        if group.add(P, group.neg(P)) != O:
            failures.append("inverse fails at %r" % (P,))
    rng = random.Random(9)
    for _ in range(200):
        A, B, C = (pts[rng.randrange(len(pts))] for _ in range(3))
        if group.add(group.add(A, B), C) != group.add(A, group.add(B, C)):
            failures.append("associativity fails at %r %r %r" % (A, B, C))
            break
    for P in pts:
        for Q in pts:
            R = group.third_intersection(P, Q)
            if group.add(group.add(P, Q), R) != O:
                failures.append("collinear triple %r %r %r does not sum to O" % (P, Q, R))
    for P in pts:
        for Q in pts:
            if group.u_auto(group.add(P, Q)) != group.add(group.u_auto(P), group.u_auto(Q)):
                failures.append("u is not additive at %r %r" % (P, Q))
    if group.u_auto(O) != O:
        failures.append("u moves the identity")
    for q in (7, 13, 19, 31):
        count = len(CurveGroup(q).points)
        if (count - q - 1) ** 2 > 4 * q:
            failures.append("point count %d over GF(%d) violates the Hasse bound"
                            % (count, q))
    _report(9, failures)


def _is_complete_mapping(table, theta):
    n = len(table)
    if sorted(theta) != list(range(n)):
        return False
    return sorted(table[g][theta[g]] for g in range(n)) == list(range(n))


def test_criterion_10_complete_mappings():
    failures = []
    for name, table in sorted(latin.group_catalog(16).items()):
        exists, theta = latin.complete_mapping_exists(table)
        if exists != latin.hall_paige_criterion(table):
            failures.append("%s disagrees with the Sylow-2 criterion" % name)
        if exists == abelianized_product_nonzero_brute(table):
            failures.append("%s disagrees with the abelianized product" % name)
        if exists and not _is_complete_mapping(table, theta):
            failures.append("%s witness is not a complete mapping" % name)
    pinned = {"Z4": False, "Z2xZ2": True, "Z5": True}
    catalog = latin.group_catalog(5)
    for name, want in pinned.items():
        exists, _ = latin.complete_mapping_exists(catalog[name])
        if exists is not want:
            failures.append("%s pinned value differs" % name)
    _report(10, failures)


def test_criterion_11_mutation_robustness():
    failures = []
    fermat19 = fermat_cubic(19)
    cases = [
        ("triangular", constructors.triangular_cyclic(5, 11),
         lambda P: P[0] * P[1] * P[2] % 11 == 0),
        ("pencil", constructors.pencil_char_p(5),
         lambda P: P[1] * (P[1] - P[2]) * (P[1] - 2 * P[2]) % 5 == 0),
        ("conic-line", constructors.conic_line(5, 11),
         lambda P: P[2] * (P[0] * P[1] - P[2] * P[2]) % 11 == 0),
        ("fermat", constructors.algebraic_fermat(3, 19),
         lambda P: fermat19.eval_at(P) == 0),
        ("tetrahedron", constructors.tetrahedron(2, 13),
         lambda P: (P[0] * P[1] * P[2]
                    * (P[1] - P[2]) * (P[0] - P[2]) * (P[0] - P[1])) % 13 == 0),
        ("hesse", constructors.hesse_4net(13), None),
    ]
    rng = random.Random(11)
    for label, net, on_locus in cases:
        p = net.p
        plane = all_points(p)
        net_points = set(net.all_net_points())
        broke = 0
        for _ in range(100):
            while True:
                Q = plane[rng.randrange(len(plane))]
                if Q in net_points:
                    continue
                if on_locus is not None and on_locus(Q):
                    continue
                break
            i = rng.randrange(net.k)
            j = rng.randrange(net.n)
            comps = [list(comp) for comp in net.components]
            comps[i][j] = Q
            try:
                nets.verify(comps, p, allow_char_exception=True)
            except nets.NetViolation:
                broke += 1
        if broke != 100:
            failures.append("%s survived %d of 100 mutations" % (label, 100 - broke))
    _report(11, failures)
