"""Protocol assembly, Born statistics, and simulation contracts."""

import bisect
import itertools
import math
import os
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pbrlab import (
    ConstraintError,
    CouplingSet,
    DegeneracyError,
    OverlapParams,
    PrepPolicy,
    TallyTable,
    ValidationError,
    Variant,
    born_probabilities,
    evolve,
    make_protocol,
    orthogonality_residuals,
    simulate,
    solve_closed_form,
)
from pbrlab import protocol, rng
from pbrlab.params import CONSTRAINT_ATOL
from pbrlab.protocol import DEFAULT_B_CANDIDATES, default_couplings
from pbrlab.rng import splitmix64, uniform

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SimLarge  # noqa: E402

XYZ_COUPLINGS = CouplingSet(1, 2, 3)


def xyz_instance(theta=math.pi / 3, phi=0.0):
    return make_protocol(Variant.XYZ, OverlapParams(theta, phi), XYZ_COUPLINGS)


def soc_instance(theta=math.pi / 4, b=0.5):
    couplings = solve_closed_form(theta, d=1.0, split=2.0, b=b).couplings
    return make_protocol(Variant.SOC, OverlapParams(theta), couplings)


class TestMakeProtocol:
    def test_xyz_forbidden_map(self):
        inst = xyz_instance()
        assert dict(inst.forbidden) == {
            "u*u": "e4",
            "u*vbar": "e2",
            "v*u": "e3",
            "v*vbar": "e1",
        }

    def test_soc_forbidden_map(self):
        inst = make_protocol(
            Variant.SOC, OverlapParams(math.pi / 4), CouplingSet(1, 0.5, -1, 1)
        )
        assert dict(inst.forbidden) == {
            "u*u": "e'2",
            "u*w": "e'4",
            "v*u": "e'3",
            "v*w": "e'1",
        }

    def test_forbidden_map_is_a_bijection(self):
        for inst in (xyz_instance(), soc_instance()):
            preps = [p for p, _ in inst.forbidden]
            outs = [o for _, o in inst.forbidden]
            assert sorted(preps) == sorted(inst.prep_labels)
            assert sorted(outs) == sorted(inst.outcome_labels)

    def test_soc_constraint_violation_reports_residual(self):
        # a + c = 0 pairs with theta = pi/4, not pi/3
        with pytest.raises(ConstraintError) as exc:
            make_protocol(Variant.SOC, OverlapParams(math.pi / 3), CouplingSet(1, 0.5, -1, 1))
        assert exc.value.residual == pytest.approx(
            abs(math.cos(math.pi / 4 + math.pi / 3)), abs=1e-12
        )

    def test_overlap_above_ortho_atol_is_a_constraint_error(self):
        # Within CONSTRAINT_ATOL of the constraint (|cos| = 4.1e-12), so only the
        # forbidden-overlap gate can reject these couplings.
        c = default_couplings(Variant.SOC, 1.0)
        bad = CouplingSet(c.a + 1e-11, c.b, c.c + 1e-11, c.d)
        with pytest.raises(ConstraintError, match=r"⟨e'4\|u\*w⟩ = 2\.92\d*e-12 exceeds 1e-12") as exc:
            make_protocol(Variant.SOC, OverlapParams(1.0), bad)
        assert exc.value.residual == pytest.approx(2.92e-12, rel=1e-2)
        assert make_protocol(Variant.SOC, OverlapParams(1.0), bad, ortho_atol=1e-11).variant is Variant.SOC

    def test_degeneracy_propagates(self):
        with pytest.raises(DegeneracyError):
            make_protocol(Variant.XYZ, OverlapParams(1.0), CouplingSet(1, 1, 0))

    def test_constraint_residual_is_the_spin_orbit_cosine(self):
        assert xyz_instance().constraint_residual is None
        inst = soc_instance(math.pi / 3)
        assert inst.constraint_residual == abs(math.cos(inst.spectrum.alpha + math.pi / 3))
        assert inst.constraint_residual <= CONSTRAINT_ATOL

    def test_orthogonality_holds_across_seeded_parameters(self):
        rng = np.random.default_rng(88)
        for _ in range(50):
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            phi = rng.uniform(0, 2 * math.pi)
            res = orthogonality_residuals(Variant.XYZ, OverlapParams(theta, phi), XYZ_COUPLINGS)
            assert max(res.values()) <= 1e-12

    @pytest.mark.parametrize("theta", [1e-3, math.pi / 2 - 1e-3])
    def test_orthogonality_near_the_ends_of_the_theta_range(self, theta):
        # verify's theta grids keep a 0.05 margin from 0 and pi/2.
        xyz = orthogonality_residuals(Variant.XYZ, OverlapParams(theta, 2.0), XYZ_COUPLINGS)
        couplings = solve_closed_form(theta, d=0.1, split=-2.5, b=1.2).couplings
        soc = orthogonality_residuals(Variant.SOC, OverlapParams(theta), couplings)
        assert max(xyz.values()) <= 1e-12 and max(soc.values()) <= 1e-12


class TestDefaultCouplings:
    @pytest.mark.parametrize(
        "theta", [0.5 * math.asin(2 / 3), math.pi / 2 - 0.5 * math.asin(2 / 3)]
    )
    def test_spin_orbit_falls_back_past_a_degenerate_b(self, theta):
        # root = hypot(2 cot 2theta, 2) = 3 here, so b = 0.5 makes e'2 = b + 2 equal e'4 = root - b.
        first = DEFAULT_B_CANDIDATES[0]
        with pytest.raises(DegeneracyError, match="e'2.*e'4"):
            solve_closed_form(theta, d=1.0, split=2.0, b=first)
        couplings = default_couplings(Variant.SOC, theta)
        assert (first, couplings.b) == (0.5, 0.8)
        inst = make_protocol(Variant.SOC, OverlapParams(theta), couplings)
        assert inst.constraint_residual <= 1e-12

    @pytest.mark.parametrize(
        "theta", [0.5 * math.asin(5 / 9), math.pi / 2 - 0.5 * math.asin(5 / 9)]
    )
    def test_spin_orbit_keeps_the_first_b_where_the_second_is_degenerate(self, theta):
        # root = 2 / sin(2 theta) = 3.6 here, so b = 0.8 makes e'2 = b + 2 equal e'4 = root - b.
        with pytest.raises(DegeneracyError, match="e'2.*e'4"):
            solve_closed_form(theta, d=1.0, split=2.0, b=DEFAULT_B_CANDIDATES[1])
        assert default_couplings(Variant.SOC, theta).b == DEFAULT_B_CANDIDATES[0] == 0.5


class TestUnknownVariant:
    def test_make_protocol(self):
        with pytest.raises(ValidationError, match="unknown Variant 'bad' \\(accepted: xyz, soc\\)"):
            make_protocol("bad", OverlapParams(0.5), XYZ_COUPLINGS)

    def test_default_couplings(self):
        with pytest.raises(ValidationError, match="unknown Variant 'bad' \\(accepted: xyz, soc\\)"):
            default_couplings("bad", 1.0)


class TestBornProbabilities:
    def test_uu_example_at_theta_pi_3(self):
        inst = xyz_instance()
        probs = born_probabilities(dict(inst.preparations)["u*u"], inst.spectrum)
        assert probs == pytest.approx((0.5, 0.125, 0.375, 0.0), abs=1e-12)

    def test_eigenvector_gives_indicator(self):
        inst = xyz_instance()
        for k, vec in enumerate(inst.spectrum.eigenvectors):
            probs = born_probabilities(vec, inst.spectrum)
            expected = tuple(1.0 if i == k else 0.0 for i in range(4))
            assert probs == pytest.approx(expected, abs=1e-12)

    def test_forbidden_entry_is_zero_for_every_preparation(self):
        for inst in (xyz_instance(0.8, 2.1), soc_instance(1.1)):
            for prep_label, outcome_label in inst.forbidden:
                probs = born_probabilities(dict(inst.preparations)[prep_label], inst.spectrum)
                assert probs[inst.outcome_labels.index(outcome_label)] <= 1e-12

    def test_probabilities_sum_to_one(self):
        inst = soc_instance(0.6)
        for _, prep in inst.preparations:
            assert sum(born_probabilities(prep, inst.spectrum)) == pytest.approx(1.0, abs=1e-12)

    def test_phi_does_not_enter_the_statistics(self):
        base = xyz_instance(1.0, 0.0).born_matrix()
        for phi in (0.3, 2.0, 5.9):
            other = xyz_instance(1.0, phi).born_matrix()
            assert np.max(np.abs(other - base)) <= 1e-12

    def test_evolution_leaves_born_vectors_unchanged(self):
        inst = xyz_instance()
        for _, prep in inst.preparations:
            before = born_probabilities(prep, inst.spectrum)
            after = born_probabilities(evolve(prep, inst.spectrum, 1.37), inst.spectrum)
            assert after == pytest.approx(before, abs=1e-12)


def reference_tallies(inst, sizes, seed, noise_eps, policy):
    """Scalar re-implementation of the per-run sampling contract.

    Returns {n: tally of runs [0, n)} for each n in sizes, from one pass of
    float draws from rng.uniform.  A draw whose value cannot change the run's
    cell (the preparation draw under round-robin, the replacement of a run
    that does not flip) is skipped.
    """
    born = inst.born_matrix()
    cums = [list(np.cumsum(row)) for row in born]
    last_live = [max(k for k in range(4) if row[k] > 0) for row in born]
    counts = [[0] * 4 for _ in range(4)]
    tallies = {}
    for i in range(max(sizes) + 1):
        if i in sizes:
            tallies[i] = tuple(tuple(row) for row in counts)
        if policy == "uniform":
            prep = min(int(uniform(seed, i, 0, 4) * 4), 3)
        else:
            prep = i % 4
        outcome = min(bisect.bisect_right(cums[prep], uniform(seed, i, 1, 4)), last_live[prep])
        if uniform(seed, i, 2, 4) < noise_eps:
            outcome = min(int(uniform(seed, i, 3, 4) * 4), 3)
        counts[prep][outcome] += 1
    return tallies


#: Zero weights first, in the middle and last, a row whose cumulative sum
#: rounds below 1, and a row with one live outcome.
EDGE_ROWS = (
    (0.5, 0.0, 0.25, 0.0),  # sums to 0.75: draws above it go to k2
    (0.0, 0.0, 0.0, 1.0),
    (0.7, 0.1, 0.1, 0.1),  # cumulative sum 0.9999999999999999
    (1.0, 0.0, 0.0, 0.0),
)

#: Rows whose running sums below 1/2 lie off the 2^-53 grid, where ceil and
#: floor of cum·2^53 differ (every double in [1/2, 1) lies on it).
OFF_GRID_ROWS = (
    (0.1, 0.2, 0.3, 0.4),
    (0.3, 0.1, 0.0, 0.6),
    (0.05, 0.0, 0.15, 0.8),
    (0.2, 0.2, 0.2, 0.4),
)


class BornRows:
    """Stand-in instance with hand-picked Born rows for the kernel's edge cases."""

    prep_labels = ("p0", "p1", "p2", "p3")
    outcome_labels = ("k0", "k1", "k2", "k3")
    forbidden = ()

    def __init__(self, rows=EDGE_ROWS):
        self.rows = np.array(rows, dtype=float)

    def born_matrix(self):
        return self.rows


def seed_for_output(counter, word):
    """The seed whose splitmix64 output at ``counter`` is ``word``: the mix inverted."""

    def unxorshift(z, shift):
        x = z
        for _ in range(64 // shift):
            x = z ^ (x >> shift)
        return x

    z = unxorshift(word, 31) * pow(rng._MIX_B, -1, 2**64) % 2**64
    z = unxorshift(z, 27) * pow(rng._MIX_A, -1, 2**64) % 2**64
    return (unxorshift(z, 30) - rng.state(0, counter)) % 2**64


BLOCK = protocol._BLOCK
SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
EXTREME_SEEDS = (0, 2**64 - 1, 2**64 - 5)


def cross_check_cases():
    """Every (noise, policy) pair, with seeded random seeds and instances.

    Each seed and instance appears at least twice.  Half the cases run to the
    largest size and the rest to BLOCK + 1, alternating so that each policy
    gets both, which keeps the scalar reference near two seconds in total.
    """
    rnd = random.Random(20260)
    instances = ["xyz", "soc", "rows"] * 3
    seeds = list(EXTREME_SEEDS) * 3
    rnd.shuffle(instances)
    rnd.shuffle(seeds)
    cases = []
    for j, noise in enumerate((0.0, 5e-324, 0.04, 1.0)):
        for p, policy in enumerate(("uniform", "roundrobin")):
            instance, seed = instances.pop(), seeds.pop()
            sizes = SIZES if (j + p) % 2 == 0 else SIZES[:4]
            cases.append(pytest.param(
                instance, seed, noise, policy, sizes,
                id=f"{instance}-{policy}-noise{noise}-seed{seed}-n{sizes[-1]}",
            ))
    return cases


def kernel_instance(name):
    return {"xyz": xyz_instance, "soc": lambda: soc_instance(theta=math.pi / 4), "rows": BornRows}[name]()


class TestSimulate:
    def test_matches_scalar_reference(self):
        inst = xyz_instance()
        for policy in ("uniform", "roundrobin"):
            for noise in (0.0, 0.3):
                table = simulate(inst, 2000, seed=31, noise_eps=noise, prep_policy=policy)
                assert table.counts == reference_tallies(inst, {2000}, 31, noise, policy)[2000]

    @pytest.mark.parametrize("instance, seed, noise, policy, sizes", cross_check_cases())
    def test_matches_scalar_reference_across_block_edges(self, instance, seed, noise, policy, sizes):
        inst = kernel_instance(instance)
        expected = reference_tallies(inst, set(sizes), seed, noise, policy)
        for n in sizes:
            table = simulate(inst, n, seed=seed, noise_eps=noise, prep_policy=policy)
            assert table.counts == expected[n], n

    def test_draws_exactly_on_a_boundary(self):
        # At seed 0, run b's outcome word and run c's noise word lie below
        # 2^52, so half a step above them is a representable uniform.  Runs
        # a, b and c have distinct preparations under either policy.
        ulp = 2.0**-53
        for policy, (a, b, c) in (("roundrobin", (0, 1, 2)), ("uniform", (0, 1, 4))):
            prep = {i: i % 4 if policy == "roundrobin" else splitmix64(0, 4 * i) >> 62 for i in (a, b, c)}
            ma, mb = (splitmix64(0, 4 * i + 1) >> 11 for i in (a, b))
            noise_word = splitmix64(0, 4 * c + 2) >> 11
            assert mb < 2**52 and noise_word < 2**52 and len(set(prep.values())) == 3
            rows = [[0.25] * 4 for _ in range(4)]
            rows[prep[a]] = [ma * ulp, 1.0 - ma * ulp, 0.0, 0.0]  # run a's u1 equals cum[0]
            rows[prep[b]] = [(mb + 0.5) * ulp, 1.0 - (mb + 0.5) * ulp, 0.0, 0.0]  # run b's u1 is just below
            # Run c's one live outcome differs from its replacement, so a flip shows.
            rows[prep[c]] = np.eye(4)[((splitmix64(0, 4 * c + 3) >> 62) + 1) % 4]
            inst = BornRows(rows)

            def cell(i, eps=0.0):
                one_run = protocol._tally_chunk(i, i + 1, 0, inst.born_matrix(), eps, PrepPolicy(policy))
                return divmod(int(np.flatnonzero(one_run)[0]), 4)

            assert (cell(a), cell(b)) == ((prep[a], 1), (prep[b], 0)), policy
            # Run c's u2 equals eps (no flip), then lies just below it (flip).
            flipped = []
            for eps in (noise_word * ulp, (noise_word + 0.5) * ulp):
                table = simulate(inst, c + 1, seed=0, noise_eps=eps, prep_policy=policy)
                assert table.counts == reference_tallies(inst, {c + 1}, 0, eps, policy)[c + 1], (policy, eps)
                flipped.append(cell(c, eps) != cell(c))
            assert flipped == [False, True], policy

    @pytest.mark.parametrize("instance", ["xyz", "rows"])
    @pytest.mark.parametrize("policy", ["uniform", "roundrobin"])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_small_blocks_match_scalar_reference(self, monkeypatch, instance, policy, noise):
        # With 8-run blocks a round-robin row crosses a block edge every 32
        # runs, so ranges of ~330 runs cross about 40 edges, from every start
        # residue mod 4.
        monkeypatch.setattr(protocol, "_BLOCK", 8)
        inst = kernel_instance(instance)
        born = inst.born_matrix()
        starts, ends = range(8), range(325, 333)
        expected = reference_tallies(inst, {*starts, *ends}, 2**64 - 1, noise, policy)
        for lo in starts:
            for hi in ends:
                got = protocol._tally_chunk(lo, hi, 2**64 - 1, born, noise, PrepPolicy(policy))
                assert np.array_equal(got, np.subtract(expected[hi], expected[lo])), (lo, hi)

    @pytest.mark.parametrize("policy", ["uniform", "roundrobin"])
    @pytest.mark.parametrize("noise", [0.9, math.nextafter(1.0, 0.0), 1.0 - 2.0**-31])
    def test_noise_words_at_the_flip_threshold(self, monkeypatch, policy, noise):
        # A run flips when its noise output is below T = ceil(eps·2^53)·2^11.
        # Seeds put run 5's noise output on T (no flip), on T - 1 and on the
        # least word with T's top 31 bits (both flip).  At eps = 0.9 that
        # least word's value before the last xorshift lies in the top 2^32 of
        # the kernel's widened bound; within about 2^-31 of 1 the bound
        # reaches 2^64 and every run is a flip candidate.  8-run blocks cross
        # about 40 edges.
        monkeypatch.setattr(protocol, "_BLOCK", 8)
        born = BornRows().born_matrix()
        threshold = math.ceil(noise * 2**53) << 11
        words = (threshold, threshold - 1, threshold >> 33 << 33)
        seeds = [seed_for_output(4 * 5 + 2, word) for word in words]
        assert [uniform(seed, 5, 2, 4) < noise for seed in seeds] == [False, True, words[2] < threshold]
        for seed in (*seeds, 2**64 - 1):
            expected = reference_tallies(BornRows(), {3, 333}, seed, noise, policy)
            got = protocol._tally_chunk(3, 333, seed, born, noise, PrepPolicy(policy))
            assert np.array_equal(got, np.subtract(expected[333], expected[3])), seed

    @pytest.mark.parametrize("rows", [EDGE_ROWS, OFF_GRID_ROWS], ids=["edge-rows", "off-grid-rows"])
    @pytest.mark.parametrize("policy", ["uniform", "roundrobin"])
    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_outcome_words_at_thresholds_and_row_edges(self, rows, policy, noise):
        # Each case puts run i's outcome word on a word threshold of its
        # preparation's row, one below it, on the row's largest word, or on
        # word 0.  Under uniform the largest word of row p and word 0 of row
        # p + 1 are neighbouring keys.  Noise 1.0 flips every run, so its new
        # cell reads the preparation back off the key.
        inst = BornRows(rows)
        cases = [(p, word, step) for p in range(4) for word, step in ((0, 1), (2**64 - 1, -1))]
        for p, row in enumerate(rows):
            thresholds = {rng.least_word(c) for c in itertools.accumulate(row)} - {0, 2**64}
            cases += [(p, word, step) for t in sorted(thresholds) for word, step in ((t, 1), (t - 1, -1))]
        for prep, word, step in cases:
            i = prep if policy == "roundrobin" else 5
            # A seed fixes run i's preparation word along with its outcome
            # word, so under uniform the outcome word steps away from the
            # threshold, within the 2^11 words of one uniform, until run i
            # has the case's preparation.
            for near in range(word, word + step * 2**11, step):
                seed = seed_for_output(4 * i + 1, near)
                if policy == "roundrobin" or splitmix64(seed, 4 * i) >> 62 == prep:
                    break
            else:
                pytest.fail(f"no word near {word} gives run {i} preparation {prep}")
            assert near >> 11 == word >> 11 and splitmix64(seed, 4 * i + 1) == near
            expected = reference_tallies(inst, {i, i + 1}, seed, noise, policy)
            got = protocol._tally_chunk(i, i + 1, seed, inst.born_matrix(), noise, PrepPolicy(policy))
            assert np.array_equal(got, np.subtract(expected[i + 1], expected[i])), (prep, word)

    @pytest.mark.parametrize("policy", list(PrepPolicy))
    def test_keys_are_positive_normal_floats(self, policy):
        # The kernel compares keys through a float64 view, which orders them
        # as integers only while they are positive, finite and normal: a
        # subnormal would read as 0 where the CPU flushes denormals to zero.
        rnd = random.Random(20260229)
        borns = [EDGE_ROWS] + [born for seed in (0, 7, 31) for born in SimLarge(seed, n_runs=1).born]
        for _ in range(20):
            weights = [[rnd.random() ** 4 * rnd.randrange(2) for _ in range(4)] for _ in range(4)]
            borns.append([[w / sum(row) for w in row] if any(row) else [0.0, 1.0, 0.0, 0.0] for row in weights])
        for born in borns:
            keys = [t for row in protocol._cell_keys(np.array(born), policy) for t in row]
            floats = np.array([*keys, protocol._FLIPPED_KEY], dtype=np.uint64).view(np.float64)
            assert np.all(np.isfinite(floats)) and np.all(floats >= np.finfo(float).tiny), born
            assert max(keys) <= protocol._FLIPPED_KEY

    @pytest.mark.parametrize(
        "policy, noise", [("uniform", 0.04), ("roundrobin", 0.0), ("roundrobin", 0.04), ("roundrobin", 1.0)]
    )
    def test_two_run_ranges_sum_to_one_call(self, policy, noise):
        # A round-robin row crosses its first block edge at run 4 * BLOCK.
        born = BornRows().born_matrix()
        lo, hi = 3, 4 * BLOCK + 7
        whole = protocol._tally_chunk(lo, hi, 2**64 - 5, born, noise, PrepPolicy(policy))
        # Split points at every residue mod 4, one past the round-robin edge.
        for mid in (4, BLOCK - 1, BLOCK + 5, 4 * BLOCK + 2, hi - 1):
            left = protocol._tally_chunk(lo, mid, 2**64 - 5, born, noise, PrepPolicy(policy))
            right = protocol._tally_chunk(mid, hi, 2**64 - 5, born, noise, PrepPolicy(policy))
            assert np.array_equal(left + right, whole), mid
        assert whole.sum() == hi - lo

    def test_memory_does_not_grow_with_n_runs(self):
        inst = xyz_instance()
        for policy in ("uniform", "roundrobin"):
            peaks = {}
            for n in (500_000, 2_000_000):
                tracemalloc.start()
                try:
                    simulate(inst, n, seed=9, noise_eps=0.04, prep_policy=policy)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            # Materialized float draws would be 4 * 8 B * n = 64 MB at 2e6 runs.
            assert peaks[2_000_000] < 4 * 2**20, policy
            assert peaks[2_000_000] <= peaks[500_000] + 64 * 2**10, policy

    def test_no_noise_never_hits_forbidden(self):
        inst = xyz_instance()
        table = simulate(inst, 100_000, seed=5, prep_policy="roundrobin")
        for prep_label, outcome_label in inst.forbidden:
            p = inst.prep_labels.index(prep_label)
            k = inst.outcome_labels.index(outcome_label)
            assert table.counts[p][k] == 0

    def test_round_robin_assigns_runs_evenly(self):
        inst = xyz_instance()
        table = simulate(inst, 40_000, seed=1, prep_policy=PrepPolicy.ROUND_ROBIN)
        assert all(sum(row) == 10_000 for row in table.counts)

    def test_uniform_policy_is_roughly_even(self):
        inst = xyz_instance()
        table = simulate(inst, 40_000, seed=1, prep_policy="uniform")
        for row in table.counts:
            assert abs(sum(row) - 10_000) < 5 * math.sqrt(10_000 * 0.25 * 0.75)

    def test_statistics_match_born_within_3_sigma(self):
        inst = xyz_instance()
        table = simulate(inst, 400_000, seed=97, prep_policy="roundrobin")
        born = born_probabilities(dict(inst.preparations)["u*u"], inst.spectrum)
        row = table.counts[inst.prep_labels.index("u*u")]
        n = sum(row)
        for k, p in enumerate(born):
            sigma = math.sqrt(p * (1 - p) / n) if 0 < p < 1 else 0.0
            assert abs(row[k] / n - p) <= max(3 * sigma, 1e-12)

    def test_noise_puts_eps_over_4_on_forbidden(self):
        inst = xyz_instance()
        table = simulate(inst, 400_000, seed=12, noise_eps=0.04, prep_policy="roundrobin")
        sigma = math.sqrt(0.01 * 0.99 / 100_000)
        for _, rate in table.forbidden_rates:
            assert abs(rate - 0.01) <= 3 * sigma

    def test_identical_inputs_identical_tables(self):
        inst = soc_instance()
        t1 = simulate(inst, 30_000, seed=77, noise_eps=0.02)
        t2 = simulate(inst, 30_000, seed=77, noise_eps=0.02)
        assert t1 == t2

    def test_worker_count_does_not_change_the_table(self):
        inst = soc_instance()
        base = simulate(inst, 30_001, seed=3, noise_eps=0.05)
        for workers in (2, 4, 7):
            assert simulate(inst, 30_001, seed=3, noise_eps=0.05, n_workers=workers) == base

    def test_worker_count_is_capped_at_the_cpu_count(self, monkeypatch):
        # Only the plan is built: no thread starts for any of these counts.
        cpus = os.cpu_count() or 1
        plan = protocol._chunk_plan(10**7, 10**9)
        assert len(plan) == cpus
        assert plan[0][0] == 0 and plan[-1][1] == 10**7
        assert all(a[1] == b[0] for a, b in zip(plan, plan[1:]))
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: None)
        assert protocol._chunk_plan(10**7, 10**9) == [(0, 10**7)]
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 64)
        assert protocol._chunk_plan(3, 10**9) == [(0, 1), (1, 2), (2, 3)]
        assert len(protocol._chunk_plan(10**7, 10**9)) == 64

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"n_runs": 0}, "n_runs"),
            ({"n_runs": 10, "seed": -1}, "seed"),
            ({"n_runs": 10, "noise_eps": 1.5}, "noise_eps"),
            ({"n_runs": 10, "n_workers": 0}, "n_workers"),
            ({"n_runs": 10.5}, "n_runs must be an integer, got float"),
            ({"n_runs": True}, "n_runs must be an integer, got bool"),
            ({"n_runs": 10, "n_workers": 2.5}, "n_workers must be an integer, got float"),
            ({"n_runs": 10, "n_workers": True}, "n_workers must be an integer, got bool"),
            (
                {"n_runs": 10, "prep_policy": "bad"},
                re.escape("unknown PrepPolicy 'bad' (accepted: uniform, roundrobin)"),
            ),
        ],
    )
    def test_input_validation(self, monkeypatch, kwargs, match):
        # With 8 CPUs a float worker count would reach range() in the chunk
        # plan; the checks come first, so no pool is built for any case.
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
        inst = xyz_instance()
        kwargs.setdefault("seed", 1)
        with pytest.raises(ValidationError, match=match):
            simulate(inst, kwargs.pop("n_runs"), **kwargs)

    def test_policy_changes_assignment_not_statistics(self):
        inst = xyz_instance()
        ta = simulate(inst, 200_000, seed=8, prep_policy="uniform")
        tb = simulate(inst, 200_000, seed=8, prep_policy="roundrobin")
        for prep in inst.prep_labels:
            for out in inst.outcome_labels:
                fa, fb = ta.frequency(prep, out), tb.frequency(prep, out)
                assert abs(fa - fb) <= 0.01


class TestTallyTableAndRates:
    def _table(self, counts):
        return TallyTable(xyz_instance(), counts)

    def test_forbidden_rate_arithmetic(self):
        counts = (
            (4950, 2500, 2450, 100),  # forbidden e4: 100 of 10^4
            (2500, 0, 5000, 2500),
            (2500, 5000, 0, 2500),
            (0, 2500, 2500, 5000),
        )
        table = self._table(counts)
        assert table.n_runs == 40_000
        assert table.forbidden_rates == (
            ("u*u", 100 / 10_000), ("u*vbar", 0.0), ("v*u", 0.0), ("v*vbar", 0.0)
        )
        assert table.eps_hat == pytest.approx(0.01)

    def test_all_zero_forbidden_counts(self):
        table = self._table(
            (
                (10, 10, 10, 0),
                (10, 0, 10, 10),
                (10, 10, 0, 10),
                (0, 10, 10, 10),
            )
        )
        assert table.eps_hat == 0.0

    @pytest.mark.parametrize(
        "counts, lengths", [(((1, 0, 0, 0),) * 3, "[4, 4, 4]"), (((1, 0, 0),) * 4, "[3, 3, 3, 3]")]
    )
    def test_counts_must_fill_the_instance_grid(self, counts, lengths):
        # Both used to construct and then fail on a read with a bare IndexError.
        with pytest.raises(ValidationError, match=re.escape(f"must be 4 rows of 4, got row lengths {lengths}")):
            self._table(counts)

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError, match="no counts"):
            self._table(tuple(tuple([0] * 4) for _ in range(4)))

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            self._table(((5, -1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)))

    def test_unrun_preparations_have_no_rate(self):
        table = self._table(((3, 0, 0, 0), (0, 0, 0, 0), (2, 1, 0, 0), (0, 0, 0, 0)))
        assert table.frequency("u*vbar", "e2") == 0.0  # a cell of the CSV grid, not a rate
        for read in ("forbidden_rates", "eps_hat"):
            with pytest.raises(ValidationError, match=re.escape("no runs prepared u*vbar, v*vbar:")):
                getattr(table, read)

    @pytest.mark.parametrize(
        "prep,outcome,named",
        [
            ("x", "e1", "'x' (labels: u*u, u*vbar, v*u, v*vbar)"),
            ("u*u", "e9", "'e9' (labels: e1, e2, e3, e4)"),
        ],
    )
    def test_unknown_label_is_named(self, prep, outcome, named):
        table = self._table(tuple(tuple([1, 0, 0, 0]) for _ in range(4)))
        with pytest.raises(ValidationError, match=re.escape(f"unknown tally label {named}")):
            table.frequency(prep, outcome)
