"""FusionUnit mechanics and multi-level report tests."""

from repro.core.fusion import FusionUnit, fuse_program
from repro.core.fusion.unit import AccessMemo
from repro.lang import Affine, validate

from conftest import build


def two_loops():
    p = build(
        """
        program t
        param N
        real A[N], B[N]
        for i = 1, N { A[i] = 1.0 }
        for i = 2, N { B[i] = g(A[i]) }
        """
    )
    l1, l2 = p.body
    return p, l1, l2


class TestUnit:
    def test_from_loop_simple(self):
        p, l1, _ = two_loops()
        unit = FusionUnit.from_loop(l1, p.params)
        assert unit.is_simple_loop()
        assert not unit.is_loose
        assert unit.loop_count() == 1

    def test_fuse_with_shifts_members(self):
        p, l1, l2 = two_loops()
        u = FusionUnit.from_loop(l1, p.params).fuse_with(
            FusionUnit.from_loop(l2, p.params), 3
        )
        assert [m.shift for m in u.members] == [0, 3]
        assert u.members[1].fused_lo == Affine.constant(5)
        assert u.members[1].fused_hi == Affine.var("N") + 3
        assert not u.is_simple_loop()

    def test_embeds_track_points(self):
        p, l1, _ = two_loops()
        stmt = build("program s\nparam N\nreal A[N]\nA[1] = 0.0").body[0]
        u = FusionUnit.from_loop(l1, p.params).with_embed_last(
            [stmt], Affine.var("N")
        )
        assert len(u.embeds) == 1
        lo, hi = u.hull(8)
        assert lo == Affine.constant(1)
        assert hi == Affine.var("N")

    def test_accesses_shift_with_alignment(self):
        p, l1, l2 = two_loops()
        u = FusionUnit.from_loop(l1, p.params).fuse_with(
            FusionUnit.from_loop(l2, p.params), -1
        )
        # B's write B[i] with shift -1 appears as offset +1 in the fused frame
        accesses = u.accesses(AccessMemo())
        b_writes = [a for a in accesses if a.array == "B" and a.is_write]
        assert b_writes[0].dims[0].value == Affine.constant(1)

    def test_describe_mentions_shifts(self):
        p, l1, l2 = two_loops()
        u = FusionUnit.from_loop(l1, p.params).fuse_with(
            FusionUnit.from_loop(l2, p.params), 2
        )
        assert "@+2" in u.describe()


class TestReports:
    def test_multilevel_report_structure(self, stencil_2d):
        _, report = fuse_program(stencil_2d)
        assert report.loops_before(1) == 2
        assert report.total_events() >= 2
        text = report.summary()
        assert "level 1" in text and "fused units" in text

    def test_peel_event_recorded_for_adi(self):
        from repro.core import preliminary
        from repro.programs import APPLICATIONS

        p = validate(APPLICATIONS["adi"].build())
        _, report = fuse_program(preliminary(p))
        kinds = {e.kind for lr in report.levels for e in lr.events}
        assert "peel" in kinds  # boundary splitting exercised
        assert "fuse" in kinds
