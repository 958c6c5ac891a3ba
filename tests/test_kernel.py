import importlib
import random
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmonoid import (ConsistencyError, ContractError,
                         FiniteAbelianGroup, SequenceVec, SupportSet,
                         build_named_set, enumerate_atoms, integer_kernel,
                         length_set, min_delta, min_delta_witness)
from blockmonoid.kernel import (child_step, echelon_insert, half_factorial,
                                lattice_tail_generator)
from oracles import (echelon_min_delta, exponent_matrix, hnf_integer_kernel,
                     kernel_basis_contains, kernel_basis_witness, power,
                     regroup, seed_echelon_insert, seed_lattice_tail_generator)
from test_atoms import EPS33, FAMILY, PM5, small_support


def _pivot(row) -> int:
    return next(j for j, x in enumerate(row) if x)


def _residue(rows, vec) -> list[int]:
    """vec reduced against echelon rows listed in ascending pivot order;
    all zero exactly when vec lies in their lattice."""
    v = list(vec)
    for row in rows:
        j = _pivot(row)
        if v[j] % row[j] == 0:
            q = v[j] // row[j]
            v = [x - q * y for x, y in zip(v, row)]
    return v


@st.composite
def integer_vectors(draw):
    dim = draw(st.integers(1, 6))
    entry = st.integers(-6, 6) | st.integers(-10**6, 10**6)
    return dim, draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                              max_size=10))


class TestPivotBasis:
    """The pivot-indexed echelon insert against the seed row-list insert."""

    @settings(max_examples=300, deadline=None)
    @given(integer_vectors())
    def test_matches_seed_insert(self, drawn):
        dim, vectors = drawn
        basis: list = [None] * dim
        seed_rows: list[list[int]] = []
        seen = {}  # id -> (row object, contents when first seen)
        for v in vectors:
            seen[id(v)] = (v, list(v))
            echelon_insert(basis, v)
            seed_echelon_insert(seed_rows, v)
            for row in basis:
                if row is not None and id(row) not in seen:
                    seen[id(row)] = (row, list(row))
        # every slot holds a row with its own pivot
        for j, row in enumerate(basis):
            assert row is None or _pivot(row) == j
        rows = [row for row in basis if row is not None]
        # the same lattice: each side reduces the other's generators to zero
        for v in vectors:
            assert not any(_residue(rows, v))
        for row in rows:
            assert not any(_residue(seed_rows, row))
        assert lattice_tail_generator(basis, dim) == \
            seed_lattice_tail_generator(seed_rows, dim)
        # neither the vectors passed in nor any row was ever mutated
        for obj, contents in seen.values():
            assert list(obj) == contents

    def test_copy_is_independent(self):
        basis: list = [None] * 3
        echelon_insert(basis, [2, 0, 1])
        copy = basis[:]
        echelon_insert(copy, [3, 1, 0])
        assert basis == [[2, 0, 1], None, None]
        assert copy == [[1, 1, -1], [0, 2, -3], None]


def assert_kernel_matches_hnf(matrix):
    """integer_kernel spans the same lattice as the Hermite-form kernel it
    replaced, with one vector per kernel dimension."""
    basis = integer_kernel(matrix)
    hnf = hnf_integer_kernel(matrix)
    assert len(basis) == len(hnf)
    for z in hnf:
        assert kernel_basis_contains(basis, z)
    for z in basis:
        assert kernel_basis_contains(hnf, z)


def sample_supports(orders, size, count, seed):
    """`count` fixed-seed random supports of `size` nonzero elements."""
    group = FiniteAbelianGroup(orders)
    rng = random.Random(seed)
    return [SupportSet(group, tuple(rng.sample(group.nonzero_elements, size)))
            for _ in range(count)]


class TestEchelonInsertLeftover:
    def test_placed_returns_none(self):
        basis: list = [None] * 2
        assert echelon_insert(basis, [0, 3, 1, 0]) is None
        assert echelon_insert(basis, [2, 0, 0, 1]) is None
        assert basis == [[2, 0, 0, 1], [0, 3, 1, 0]]

    def test_vanishing_leading_part_is_returned(self):
        basis: list = [None] * 2
        echelon_insert(basis, [2, 4, 1, 0])
        # [4, 8, 0, 1] - 2 * [2, 4, 1, 0]: its first two entries vanish
        assert echelon_insert(basis, [4, 8, 0, 1]) == [0, 0, -2, 1]
        assert basis == [[2, 4, 1, 0], None]

    def test_full_length_vector_reduces_to_zero(self):
        basis: list = [None] * 2
        echelon_insert(basis, [2, 1])
        assert echelon_insert(basis, [4, 2]) == [0, 0]


class TestIntegerKernel:
    def test_pm_matrix(self):
        # the atom matrix of {g, -g} in C5 under one column ordering
        basis = integer_kernel([[5, 0, 1], [0, 5, 1]])
        assert len(basis) == 1
        assert kernel_basis_contains(basis, (1, 1, -5))
        assert kernel_basis_contains(basis, (-1, -1, 5))

    def test_single_column(self):
        assert len(integer_kernel([[3], [1]])) == 0

    def test_basis_plus_sum_matrix(self):
        atoms = enumerate_atoms(EPS33)
        basis = integer_kernel(exponent_matrix(atoms))
        assert len(basis) == 2
        # e0^3 * e1^3 * e2^3 = (e0 e1^2 e2^2)(e0^2 e1 e2); build the relation
        idx = {a.exponents: j for j, a in enumerate(atoms.atoms)}
        z = [0] * len(atoms)
        for v in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
            z[idx[v]] += 1
        for v in ((1, 2, 2), (2, 1, 1)):
            z[idx[v]] -= 1
        assert kernel_basis_contains(basis, tuple(z))

    @settings(max_examples=40, deadline=None)
    @given(small_support())
    def test_kernel_vectors_annihilate(self, support):
        atoms = enumerate_atoms(support)
        if not len(atoms):
            return
        matrix = exponent_matrix(atoms)
        basis = integer_kernel(matrix)
        for z in basis:
            for row in matrix:
                assert sum(r * c for r, c in zip(row, z)) == 0


class TestKernelAgainstHermiteForm:
    """The matrix-part elimination against the kernel it replaced, which also
    reduced the kernel basis to Hermite form."""

    @settings(max_examples=60, deadline=None)
    @given(small_support())
    def test_small_supports(self, support):
        atoms = enumerate_atoms(support)
        assert_kernel_matches_hnf(exponent_matrix(atoms))

    @pytest.mark.parametrize("orders", [(7, 7), (6, 6), (2, 2, 2, 2, 2)],
                             ids=lambda o: FiniteAbelianGroup(o).spec_string())
    def test_five_element_subsets(self, orders):
        for support in sample_supports(orders, 5, 2, seed=5):
            assert_kernel_matches_hnf(exponent_matrix(enumerate_atoms(support)))

    def test_witness_example(self):
        # the C7^2 support min-delta --explain documents; the basis is no
        # longer in Hermite form, so the witness differs from the old one
        group = FiniteAbelianGroup((7, 7))
        support = SupportSet(group, ((1, 0), (0, 1), (3, 5), (6, 6)))
        atoms = enumerate_atoms(support)
        assert_kernel_matches_hnf(exponent_matrix(atoms))
        witness = min_delta_witness(atoms)
        assert witness.lengths == (2, 3)
        assert witness.vector[:4] == (0, -1, 3, -1)


def assert_witness_matches_kernel_basis(atoms):
    """min_delta_witness against the kernel-basis witness it replaced: the
    same min Delta, M z = 0 with 1^T z = min Delta, one sequence for both
    halves, and lengths that differ by min Delta."""
    witness = min_delta_witness(atoms)
    oracle = kernel_basis_witness(atoms)
    d = min_delta(atoms)
    assert (witness is None) == (oracle is None) == (d == 0)
    if witness is None:
        return
    assert oracle.lengths[1] - oracle.lengths[0] == d
    z = witness.vector
    assert len(z) == len(atoms)
    for row in exponent_matrix(atoms):
        assert sum(r * c for r, c in zip(row, z)) == 0
    assert sum(z) == d
    halves = []
    for sign in (1, -1):
        seq = SequenceVec.empty(atoms.support)
        for c, a in zip(z, atoms.atoms):
            if sign * c > 0:
                seq = seq * power(a, sign * c)
        halves.append(seq)
    assert halves[0] == halves[1] == witness.sequence
    assert witness.sequence.is_zero_sum()
    minus_len, plus_len = witness.lengths
    assert plus_len == sum(c for c in z if c > 0)
    assert minus_len == -sum(c for c in z if c < 0)
    assert plus_len - minus_len == d


class TestWitnessAgainstKernelBasis:
    """The (k+1)-slot elimination that stops carrying unit tails once the
    tail generator reaches min Delta, against the witness combined from a
    whole kernel basis."""

    @settings(max_examples=100, deadline=None)
    @given(small_support(max_size=5))
    def test_small_supports(self, support):
        assert_witness_matches_kernel_basis(enumerate_atoms(support))

    @pytest.mark.parametrize("orders", [(7, 7), (6, 6), (2, 2, 2, 2, 2)],
                             ids=lambda o: FiniteAbelianGroup(o).spec_string())
    def test_five_element_subsets(self, orders):
        for support in sample_supports(orders, 5, 3, seed=17):
            assert_witness_matches_kernel_basis(enumerate_atoms(support))

    def test_tail_passes_a_multiple(self):
        # the tail generator reads 2 and then 1 here: the witness stops at
        # the first |t| = min Delta, not at the first |t| it sees
        support = SupportSet(FiniteAbelianGroup((8,)), ((4,), (5,), (6,)))
        assert_witness_matches_kernel_basis(enumerate_atoms(support))


class TestWitnessTraps:
    """A min Delta the elimination cannot confirm raises, wherever the
    elimination stops carrying tails."""

    @staticmethod
    def patched(monkeypatch, value):
        kernel = importlib.import_module("blockmonoid.kernel")
        monkeypatch.setattr(kernel, "min_delta", lambda atoms: value)

    @pytest.mark.parametrize("value", [1, 6, 0])
    def test_pm_pair(self, monkeypatch, value):
        # min Delta 3: 1 and 6 are never reached, and 0 carries no tails
        atoms = enumerate_atoms(PM5)
        self.patched(monkeypatch, value)
        with pytest.raises(ConsistencyError, match="kernel-basis gcd disagrees"):
            min_delta_witness(atoms)

    def test_independent_set(self, monkeypatch):
        group = FiniteAbelianGroup((3, 3))
        atoms = enumerate_atoms(SupportSet(group, ((1, 0), (0, 1))))
        self.patched(monkeypatch, 1)
        with pytest.raises(ConsistencyError, match="kernel-basis gcd disagrees"):
            min_delta_witness(atoms)

    @pytest.mark.parametrize("orders, elements, value", [
        ((8,), ((4,), (5,), (6,)), 2),
        ((2, 6), ((1, 0), (1, 2), (1, 4)), 4),
    ])
    def test_stop_at_a_multiple(self, monkeypatch, orders, elements, value):
        # the tail generator passes `value`, twice min Delta, before it ends
        # at min Delta: the elimination stops there with a z that passes
        # M z = 0 and 1^T z = value, and only the final check catches it
        atoms = enumerate_atoms(SupportSet(FiniteAbelianGroup(orders), elements))
        self.patched(monkeypatch, value)
        with pytest.raises(ConsistencyError, match="kernel-basis gcd disagrees"):
            min_delta_witness(atoms)

    def test_corrupt_coefficients(self, monkeypatch):
        # a slot-k row whose coefficient tail is off by one: the tail
        # generator still ends at min Delta, so only the direct check on z
        # sees it
        kernel = importlib.import_module("blockmonoid.kernel")
        insert = kernel.echelon_insert

        def corrupting(basis, vec):
            left = insert(basis, vec)
            row = basis[-1]
            if row is not None and len(row) > len(basis):
                basis[-1] = [*row[:-1], row[-1] + 1]
            return left

        atoms = enumerate_atoms(PM5)
        monkeypatch.setattr(kernel, "echelon_insert", corrupting)
        with pytest.raises(ConsistencyError, match=r"fails M z = 0 or 1\^T z = 3"):
            min_delta_witness(atoms)


class TestKernelRank:
    """The rank `min-delta` reports, len(atoms) - len(support), is the rank
    of the kernel of the exponent matrix M: every g^ord(g) is an atom, so M
    has full row rank."""

    NAMED = (
        build_named_set("pm", FiniteAbelianGroup((7,))),
        build_named_set("pm", FiniteAbelianGroup((2, 6))),
        build_named_set("eps", FiniteAbelianGroup((3, 3))),
        build_named_set("eps", FiniteAbelianGroup((2, 2, 2))),
        build_named_set("remark-4.6.1", r=3),
        build_named_set("remark-4.6.2", r=3),
        build_named_set("remark-4.6.2", r=4),
    )

    @staticmethod
    def check(support):
        atoms = enumerate_atoms(support)
        assert len(integer_kernel(exponent_matrix(atoms))) == \
            len(atoms) - len(support)

    def test_named_sets(self):
        for support in self.NAMED:
            self.check(support)

    def test_random_supports(self):
        rng = random.Random(11)
        for orders in ((12,), (2, 6), (3, 3), (2, 2, 4), (4, 4)):
            group = FiniteAbelianGroup(orders)
            for size in (1, 3, 5):
                self.check(SupportSet(group, tuple(
                    rng.sample(group.nonzero_elements, size))))


class TestMinDelta:
    def test_pm_pair(self):
        assert min_delta(enumerate_atoms(PM5)) == 3

    def test_basis_plus_sum(self):
        assert min_delta(enumerate_atoms(EPS33)) == 1

    def test_family_with_realization(self):
        atoms = enumerate_atoms(FAMILY)
        assert min_delta(atoms) == 2
        # A1 * B3 factors as 2 atoms and as the four fourth powers
        a1 = SequenceVec(FAMILY, (1, 3, 3, 1))
        b3 = SequenceVec(FAMILY, (3, 1, 1, 3))
        assert length_set(a1 * b3, atoms).values == (2, 4)

    @settings(max_examples=40, deadline=None)
    @given(small_support())
    def test_matches_kernel_basis_gcd(self, support):
        atoms = enumerate_atoms(support)
        basis = integer_kernel(exponent_matrix(atoms))
        assert min_delta(atoms) == gcd(*map(sum, basis))

    # supports whose lcm n of the orders is a proper divisor of exp(G), so
    # each half-factorial step reads n k(A) scaled by e/n: min Delta 1 and 2
    # at n = 4, e = 8, half-factorial at n = 3, e = 6, and min Delta 1 at
    # n = 2, e = 12
    @example(SupportSet(FiniteAbelianGroup((2, 8)), ((0, 2), (1, 0), (1, 2))))
    @example(SupportSet(FiniteAbelianGroup((2, 8)), ((0, 2), (0, 6), (1, 0))))
    @example(SupportSet(FiniteAbelianGroup((3, 6)), ((0, 2), (1, 4), (2, 0))))
    @example(SupportSet(FiniteAbelianGroup((4, 6)), ((2, 0), (0, 3), (2, 3))))
    @settings(max_examples=100, deadline=None)
    @given(small_support(max_size=5))
    def test_matches_echelon_readout(self, support):
        atoms = enumerate_atoms(support)
        assert min_delta(atoms) == echelon_min_delta(atoms)

    @settings(max_examples=100, deadline=None)
    @given(small_support(max_size=5), st.randoms(use_true_random=False))
    def test_split_folds_match_echelon_readout(self, support, rng):
        # min_delta's loop, with each position b's atoms folded in two
        # steps, as the sweep folds them: first those whose support lies in
        # b plus a random set T of later positions, then the rest,
        # shuffled, from the form the first step ends at.  The same d' as
        # one step over the entries, a final D of e*d', and a W_b with
        # c*W_b = B (mod e*d') on every new atom; so the same min Delta as
        # the echelon readout
        atoms = enumerate_atoms(support)
        k = len(support)
        e = support.group.exponent
        # n k(A) is read on the support's scale n = lcm of the orders, so
        # under a half-factorial parent B = e - (e/n)*n k(A) + c*e/ord(g_b)
        u = e // lcm(*support.orders)
        joining = [[] for _ in range(k)]
        for mask, entry in atoms.mask_index.items():
            joining[(mask & -mask).bit_length() - 1].append(entry)
        weights = [0] * k
        d = 0
        for b in range(k - 1, -1, -1):
            pairs = [(vec[0], e - sum(weights[i] * v
                                      for i, v in zip(entry.above, vec[1:])))
                     for entry in joining[b] for vec in entry.vectors]
            inside = {i for i in range(b + 1, k) if rng.random() < 0.5}
            first = [entry for entry in joining[b] if inside.issuperset(entry.above)]
            rest = [SimpleNamespace(above=entry.above, vectors=[vec], scaled=[nk])
                    for entry in joining[b] if not inside.issuperset(entry.above)
                    for vec, nk in zip(entry.vectors, entry.scaled)]
            rng.shuffle(rest)
            forced = e // support.orders[b]
            whole_d, whole_w, whole_form = child_step(e, d, joining[b], weights,
                                                      (0, 0, 0), u, forced)
            _, _, form = child_step(e, d, first, weights, (0, 0, 0), u, forced)
            child_d, w, form = child_step(e, d, rest, weights, form, u, forced)
            assert child_d == whole_d
            assert form[2] == whole_form[2] == e * child_d
            if child_d == 1:
                assert w is None
                d = 1
                break
            for c, big_b in pairs:
                if child_d:
                    assert (c * w - big_b) % (e * child_d) == 0
                else:
                    assert c * w == big_b
            d, weights[b] = child_d, w
        assert d == min_delta(atoms) == echelon_min_delta(atoms)

    @pytest.mark.parametrize("orders", [(19,), (2, 2, 2, 3), (2, 2, 2, 2, 2)],
                             ids=lambda o: FiniteAbelianGroup(o).spec_string())
    def test_matches_echelon_readout_on_whole_group(self, orders):
        group = FiniteAbelianGroup(orders)
        atoms = enumerate_atoms(SupportSet(group, group.nonzero_elements))
        assert min_delta(atoms) == echelon_min_delta(atoms)

    def test_position_without_atom_is_refused(self):
        # every element g brings the atom g^ord(g); without it the dual
        # state has no new atom to read at that position
        support = SupportSet(FiniteAbelianGroup((5,)), ((1,), (4,)))
        with pytest.raises(ContractError, match="position 0"):
            min_delta(regroup(support, []))
        only_pair = regroup(support, [(1, 1), (5, 0)])
        with pytest.raises(ContractError, match="position 1"):
            min_delta(only_pair)

    def test_witness(self):
        atoms = enumerate_atoms(PM5)
        witness = min_delta_witness(atoms)
        assert abs(sum(witness.vector)) == 3
        assert witness.lengths in ((2, 5), (5, 2))
        # both sides factor the same sequence
        assert witness.sequence.is_zero_sum()

    def test_witness_none_for_half_factorial(self):
        support = SupportSet(FiniteAbelianGroup((4,)), ((2,),))
        assert min_delta_witness(enumerate_atoms(support)) is None


class TestHalfFactorial:
    def test_independent_set(self):
        group = FiniteAbelianGroup((3, 3))
        atoms = enumerate_atoms(SupportSet(group, ((1, 0), (0, 1))))
        assert half_factorial(atoms, min_delta(atoms))

    def test_pm_pair(self):
        atoms = enumerate_atoms(PM5)
        assert not half_factorial(atoms, min_delta(atoms))

    def test_singleton(self):
        atoms = enumerate_atoms(SupportSet(FiniteAbelianGroup((5,)), ((2,),)))
        assert half_factorial(atoms, min_delta(atoms))

    @settings(max_examples=40, deadline=None)
    @given(small_support())
    def test_routes_agree(self, support):
        # half_factorial raises ConsistencyError itself on disagreement
        atoms = enumerate_atoms(support)
        d = min_delta(atoms)
        assert half_factorial(atoms, d) == (d == 0)
