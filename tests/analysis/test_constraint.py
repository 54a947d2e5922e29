"""Alignment-constraint math tests (the heart of FusibleTest)."""

from repro.analysis import (
    ConflictKind,
    RefAccess,
    compute_alignment,
    pair_conflict,
    symbolic_max,
    symbolic_min,
)
from repro.analysis.classify import DimClass
from repro.lang import Affine, Assumptions

ASSUME = Assumptions()


def ref(array, dims, write=False, lo=1, hi="N"):
    lo_f = Affine.constant(lo) if isinstance(lo, int) else Affine.var(lo)
    hi_f = Affine.constant(hi) if isinstance(hi, int) else Affine.var(hi)
    return RefAccess(array, write, tuple(dims), lo_f, hi_f, text=array)


def var(c):
    return DimClass.variant(Affine.constant(c))


def inv(value):
    form = Affine.constant(value) if isinstance(value, int) else Affine.var(value)
    return DimClass.invariant(form)


class TestPairConflict:
    def test_variant_variant_delta(self):
        c = pair_conflict(ref("A", [var(0)], write=True), ref("A", [var(-2)]), ASSUME)
        assert c.kind is ConflictKind.DELTA
        assert c.bound.int_value() == -2  # D >= b - a = -2

    def test_different_arrays_no_conflict(self):
        r2 = ref("B", [var(0)], write=True)
        assert pair_conflict(ref("A", [var(0)]), r2, ASSUME) is None

    def test_inconsistent_constant_deltas_no_conflict(self):
        r1 = ref("A", [var(0), var(0)], write=True)
        r2 = ref("A", [var(1), var(2)])
        assert pair_conflict(r1, r2, ASSUME) is None

    def test_variant_invariant_pin1(self):
        # loop writes A[i]; a later access reads A[2]: pins iteration 2
        c = pair_conflict(ref("A", [var(0)], write=True), ref("A", [inv(2)]), ASSUME)
        assert c.kind is ConflictKind.PIN1
        assert c.pin1.int_value() == 2

    def test_invariant_variant_pin2(self):
        c = pair_conflict(ref("A", [inv("N")], write=True), ref("A", [var(0)]), ASSUME)
        assert c.kind is ConflictKind.PIN2
        assert c.pin2 == Affine.var("N")

    def test_pin_outside_active_range_is_no_conflict(self):
        # loop over [3, N-2] writing A[i] cannot touch A[1]
        r1 = RefAccess(
            "A", True, (var(0),), Affine.constant(3), Affine.var("N") - 2
        )
        assert pair_conflict(r1, ref("A", [inv(1)]), ASSUME) is None
        # ... nor A[N]
        assert pair_conflict(r1, ref("A", [inv("N")]), ASSUME) is None

    def test_invariant_equal_points_serialize(self):
        c = pair_conflict(ref("A", [inv(1)], write=True), ref("A", [inv(1)]), ASSUME)
        assert c.kind is ConflictKind.SERIALIZE
        assert c.bound == Affine.var("N") - 1  # hi1 - lo2

    def test_invariant_distinct_points_no_conflict(self):
        r1 = ref("A", [inv(1)], write=True)
        assert pair_conflict(r1, ref("A", [inv(2)]), ASSUME) is None

    def test_inner_vs_variant_serializes(self):
        d_inner = DimClass.inner({"j"})
        c = pair_conflict(
            ref("A", [d_inner, var(0)], write=True),
            ref("A", [var(0), inv(1)]),
            ASSUME,
        )
        # dim1 couples whole-dimension vs element; dim2 pins the later side
        assert c is not None

    def test_pin_beats_serialize(self):
        # dim1: variant x inner (would serialize); dim2: pins the later
        # loop to iteration 1 -> the conflict is peelable (PIN2)
        r1 = ref("A", [var(0), inv(1)], write=True)
        r2 = ref("A", [DimClass.inner({"j"}), var(0)])
        c = pair_conflict(r1, r2, ASSUME)
        assert c.kind is ConflictKind.PIN2
        assert c.pin2.int_value() == 1

    def test_delta_beats_serialize(self):
        r1 = ref("A", [DimClass.inner({"j"}), var(0)], write=True)
        r2 = ref("A", [DimClass.inner({"j"}), var(-1)])
        c = pair_conflict(r1, r2, ASSUME)
        assert c.kind is ConflictKind.DELTA
        assert c.bound.int_value() == -1


class TestComputeAlignment:
    def test_dependence_dominates_preference(self):
        # flow dep requires D >= -2; a read-read pair prefers -1: the
        # paper picks the smallest alignment satisfying dependence
        acc1 = [ref("A", [var(0)], write=True), ref("A", [var(-1)])]
        acc2 = [ref("A", [var(-2)])]
        res = compute_alignment(acc1, acc2, ASSUME)
        assert res.fusible
        assert res.alignment == -2

    def test_pure_read_read_uses_preference(self):
        acc1 = [ref("A", [var(0)])]
        acc2 = [ref("A", [var(-3)])]
        res = compute_alignment(acc1, acc2, ASSUME)
        assert res.fusible
        assert res.alignment == -3

    def test_largest_over_arrays(self):
        acc1 = [ref("A", [var(0)], write=True), ref("B", [var(0)], write=True)]
        acc2 = [ref("A", [var(-2)]), ref("B", [var(1)])]
        res = compute_alignment(acc1, acc2, ASSUME)
        assert res.fusible
        assert res.alignment == 1  # B requires +1, A only -2

    def test_unbounded_reports_conflicts(self):
        acc1 = [ref("A", [inv(1)], write=True)]
        acc2 = [ref("A", [inv(1)], write=True)]
        res = compute_alignment(acc1, acc2, ASSUME)
        assert not res.fusible
        assert res.unbounded

    def test_no_sharing_alignment_zero(self):
        res = compute_alignment([ref("A", [var(0)])], [ref("B", [var(0)])], ASSUME)
        assert res.fusible and res.alignment == 0


class TestSymbolicMinMax:
    def test_max(self):
        n = Affine.var("N")
        assert symbolic_max([n - 1, Affine.constant(2), n], ASSUME) == n

    def test_min(self):
        n = Affine.var("N")
        assert symbolic_min([n - 1, Affine.constant(2)], ASSUME) == Affine.constant(2)

    def test_incomparable_returns_none(self):
        assert symbolic_max([Affine.var("N"), Affine.var("M")], ASSUME) is None

    def test_empty(self):
        assert symbolic_max([], ASSUME) is None
        assert symbolic_min([], ASSUME) is None
