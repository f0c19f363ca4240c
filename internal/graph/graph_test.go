package graph

import (
	"testing"

	"repro/internal/netlist"
)

// chainDesign builds: p -> a -> b -> c, plus a high-fanout net b -> {s0..s4}.
func chainDesign(t *testing.T) (*netlist.Design, map[string]netlist.CellID) {
	t.Helper()
	b := netlist.NewBuilder("chain")
	ids := map[string]netlist.CellID{}
	ids["p"] = b.AddPort("p")
	ids["a"] = b.AddComb("a", 100, "")
	ids["b"] = b.AddComb("b", 100, "")
	ids["c"] = b.AddComb("c", 100, "")
	for _, n := range []string{"s0", "s1", "s2", "s3", "s4"} {
		ids[n] = b.AddComb(n, 100, "")
	}
	b.Wire("n0", ids["p"], ids["a"])
	b.Wire("n1", ids["a"], ids["b"])
	b.Wire("n2", ids["b"], ids["c"])
	b.Wire("nf", ids["b"], ids["s0"], ids["s1"], ids["s2"], ids["s3"], ids["s4"])
	return b.MustBuild(), ids
}

func TestDirectedAdjacency(t *testing.T) {
	d, ids := chainDesign(t)
	g := DirectedFromDesign(d)
	// b drives c and s0..s4 -> fanout 6.
	fo := g.Fanout.Row(int32(ids["b"]))
	if len(fo) != 6 {
		t.Errorf("fanout(b) = %d, want 6", len(fo))
	}
	// c's fanin is exactly b.
	fi := g.Fanin.Row(int32(ids["c"]))
	if len(fi) != 1 || fi[0] != int32(ids["b"]) {
		t.Errorf("fanin(c) = %v, want [b]", fi)
	}
	// Port p has no fanin.
	if len(g.Fanin.Row(int32(ids["p"]))) != 0 {
		t.Error("port should have no fanin")
	}
	// Total edges linear in pins.
	if got, want := len(g.Fanout.Targets), len(g.Fanin.Targets); got != want {
		t.Errorf("fanout edges %d != fanin edges %d", got, want)
	}
}

func TestBipartiteIncidence(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	if bp.CellNets.NumVertices() != len(d.Cells) {
		t.Errorf("CellNets rows = %d", bp.CellNets.NumVertices())
	}
	if bp.NetCells.NumVertices() != len(d.Nets) {
		t.Errorf("NetCells rows = %d", bp.NetCells.NumVertices())
	}
	// b touches n1 (sink), n2 (driver), nf (driver) -> 3 nets.
	if got := len(bp.CellNets.Row(int32(ids["b"]))); got != 3 {
		t.Errorf("nets(b) = %d, want 3", got)
	}
	// nf has 6 cells.
	nf := d.Nets[3]
	if nf.Name != "nf" {
		t.Fatalf("net order changed: %q", nf.Name)
	}
	if got := len(bp.NetCells.Row(3)); got != 6 {
		t.Errorf("cells(nf) = %d, want 6", got)
	}
}

// allCells lists every cell of d, as MultiSourceLabel targets.
func allCells(d *netlist.Design) []int32 {
	out := make([]int32, len(d.Cells))
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestMultiSourceLabel(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	// Seeds: p (label 10) and c (label 20).
	labels := bp.MultiSourceLabel(nil,
		[]int32{int32(ids["p"]), int32(ids["c"])},
		[]int32{10, 20},
		allCells(d),
	)
	if labels[ids["p"]] != 10 {
		t.Errorf("seed p: label=%d", labels[ids["p"]])
	}
	if labels[ids["c"]] != 20 {
		t.Errorf("seed c: label=%d", labels[ids["c"]])
	}
	// a is 1 hop from p, 2 hops from c -> label 10.
	if labels[ids["a"]] != 10 {
		t.Errorf("a: label=%d, want 10", labels[ids["a"]])
	}
	// b is 2 hops from p and 1 hop from c -> label 20.
	if labels[ids["b"]] != 20 {
		t.Errorf("b: label=%d, want 20", labels[ids["b"]])
	}
	// s* hang off b's fanout net -> 2 hops from c.
	if labels[ids["s3"]] != 20 {
		t.Errorf("s3: label=%d, want 20", labels[ids["s3"]])
	}
}

func TestMultiSourceLabelUnreachable(t *testing.T) {
	b := netlist.NewBuilder("u")
	a := b.AddComb("a", 100, "")
	c := b.AddComb("c", 100, "")
	b.Wire("n", a) // degenerate single-pin net
	_ = c          // isolated cell
	d := b.MustBuild()
	bp := BipartiteFromDesign(d)
	labels := bp.MultiSourceLabel(nil, []int32{int32(a)}, []int32{1}, []int32{int32(c), int32(a)})
	if labels[0] != Unlabeled {
		t.Errorf("isolated cell labeled: %d", labels[0])
	}
	if labels[1] != 1 {
		t.Errorf("seed target: label=%d, want 1", labels[1])
	}
}

func TestMultiSourceDuplicateSeeds(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	labels := bp.MultiSourceLabel(nil,
		[]int32{int32(ids["a"]), int32(ids["a"])},
		[]int32{5, 7},
		[]int32{int32(ids["a"])},
	)
	if labels[0] != 5 {
		t.Errorf("duplicate seed should keep first label, got %d", labels[0])
	}
}

func TestCSRRowBounds(t *testing.T) {
	d, _ := chainDesign(t)
	g := DirectedFromDesign(d)
	total := 0
	for v := int32(0); v < int32(g.Fanout.NumVertices()); v++ {
		total += len(g.Fanout.Row(v))
	}
	if total != len(g.Fanout.Targets) {
		t.Errorf("row partition broken: %d vs %d", total, len(g.Fanout.Targets))
	}
}

func TestDeterministicTraversal(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	l1 := bp.MultiSourceLabel(nil, []int32{int32(ids["p"])}, []int32{1}, allCells(d))
	l2 := bp.MultiSourceLabel(nil, []int32{int32(ids["p"])}, []int32{1}, allCells(d))
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("BFS not deterministic")
		}
	}
}
