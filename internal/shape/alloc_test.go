package shape

import "testing"

// TestCombineIntoAllocs pins CombineHInto/CombineVInto/ThinInto/UnionInto at
// zero steady-state allocations: after one warm-up call grows each
// destination buffer to its high-water mark, composing curves into it must
// not allocate — the invariant allocfree enforces statically on the
// //hidapvet:hotpath annotations.
func TestCombineIntoAllocs(t *testing.T) {
	a := FromBoxRotatable(120, 80)
	b := FromBoxRotatable(95, 60)
	var dstH, dstV, dstT, dstU []Point
	var ch, cv, ct, cu Curve
	step := func() {
		ch, dstH = CombineHInto(dstH, a, b, 8)
		cv, dstV = CombineVInto(dstV, a, b, 8)
		ct, dstT = ThinInto(dstT, ch, 2)
		cu, dstU = UnionInto(dstU, ch, cv)
	}
	step()
	if avg := testing.AllocsPerRun(400, step); avg != 0 {
		t.Fatalf("Into composition allocates %.2f objects/run, want 0", avg)
	}
	if ch.Len() == 0 || cv.Len() == 0 || ct.Len() == 0 || cu.Len() == 0 {
		t.Fatal("composed curves unexpectedly empty")
	}
}
