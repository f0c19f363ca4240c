package slicing

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/shape"
)

// randomBlocks mixes soft blocks and macro carriers the way one HiDaP level
// does, with enough macros to exercise the repair and violation paths.
func randomBlocks(rng *rand.Rand, n int) []Block {
	blocks := make([]Block, n)
	for i := range blocks {
		at := int64(5_000 + rng.Intn(60_000))
		blocks[i] = Block{TargetArea: at, MinArea: at / 2}
		if i%3 == 0 {
			w := int64(50 + rng.Intn(250))
			h := int64(40 + rng.Intn(200))
			blocks[i].Curve = shape.FromBoxRotatable(w, h)
			blocks[i].MinArea = w * h
			blocks[i].TargetArea = w * h * 3 / 2
		}
	}
	return blocks
}

// node is one slicing-tree node materialized from the postfix expression.
type node struct {
	op          int32 // OpV, OpH, or >= 0 for a leaf (operand id)
	left, right int   // children indices, -1 for leaves
	at, am      int64
	curve       shape.Curve
}

// Evaluate is the from-scratch reference for Evaluator, the differential
// oracle of this package's tests: it materializes the whole slicing tree
// with the allocating curve algebra, then runs the same top-down area
// budgeting recursively. Every Evaluator result must equal it bit for bit.
func Evaluate(e *Expr, blocks []Block, budget geom.Rect, p EvalParams) *Eval {
	ev := &Eval{Rects: make([]geom.Rect, len(blocks)), Penalty: 1}
	if e.n == 0 || budget.Empty() {
		return ev
	}
	if p.CompactPoints <= 0 {
		p.CompactPoints = 12
	}

	// Bottom-up: build the tree, composing ⟨Γ, am, at⟩ per node.
	nodes := make([]node, 0, len(e.elems))
	stack := make([]int, 0, len(blocks))
	for _, v := range e.elems {
		if v >= 0 {
			b := blocks[v]
			nodes = append(nodes, node{
				op: v, left: -1, right: -1,
				at:    b.TargetArea,
				am:    b.MinArea,
				curve: thinCurve(b.Curve, p.CompactPoints),
			})
			stack = append(stack, len(nodes)-1)
			continue
		}
		r := stack[len(stack)-1]
		l := stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		var c shape.Curve
		if v == OpV {
			c = shape.CombineH(nodes[l].curve, nodes[r].curve)
		} else {
			c = shape.CombineV(nodes[l].curve, nodes[r].curve)
		}
		nodes = append(nodes, node{
			op: v, left: l, right: r,
			at:    nodes[l].at + nodes[r].at,
			am:    nodes[l].am + nodes[r].am,
			curve: thinCurve(c, p.CompactPoints),
		})
		stack = append(stack, len(nodes)-1)
	}
	root := stack[0]

	// Top-down: assign rectangles. Violations are summed hierarchically —
	// each subtree's totals combine as own + left + right — rather than in
	// leaf-visit order. The fixed association is what lets the incremental
	// Evaluator cache per-subtree sums and skip clean subtrees while staying
	// bit-identical to this from-scratch pass (floating-point addition is
	// not associative, so the two must agree on the summation tree).
	var assign func(ni int, r geom.Rect) (vAt, vAm, vMacro float64)
	assign = func(ni int, r geom.Rect) (vAt, vAm, vMacro float64) {
		nd := &nodes[ni]
		if nd.left < 0 {
			ev.Rects[nd.op] = r
			return leafViolations(&blocks[nd.op], r)
		}
		l, rr := &nodes[nd.left], &nodes[nd.right]
		var own float64
		var lAt, lAm, lMac, rAt, rAm, rMac float64
		if nd.op == OpV {
			wl := splitShare(r.W, l.at, rr.at)
			wl, own = repairSplit(wl, r.W, r.H, &l.curve, &rr.curve, true)
			lAt, lAm, lMac = assign(nd.left, geom.RectXYWH(r.X, r.Y, wl, r.H))
			rAt, rAm, rMac = assign(nd.right, geom.RectXYWH(r.X+wl, r.Y, r.W-wl, r.H))
		} else {
			hb := splitShare(r.H, l.at, rr.at)
			hb, own = repairSplit(hb, r.H, r.W, &l.curve, &rr.curve, false)
			lAt, lAm, lMac = assign(nd.left, geom.RectXYWH(r.X, r.Y, r.W, hb))
			rAt, rAm, rMac = assign(nd.right, geom.RectXYWH(r.X, r.Y+hb, r.W, r.H-hb))
		}
		return lAt + rAt, lAm + rAm, own + lMac + rMac
	}
	ev.ViolationAt, ev.ViolationAm, ev.ViolationMacro = assign(root, budget)

	ev.Penalty = p.penalty(ev.ViolationAt, ev.ViolationAm, ev.ViolationMacro)
	return ev
}

// thinCurve returns a copy of c thinned to at most k corners.
func thinCurve(c shape.Curve, k int) shape.Curve {
	c, _ = shape.ThinInto(nil, c, k)
	return c
}

func evalsEqual(t *testing.T, tag string, inc, full *Eval) {
	t.Helper()
	if len(inc.Rects) != len(full.Rects) {
		t.Fatalf("%s: rect count %d vs %d", tag, len(inc.Rects), len(full.Rects))
	}
	for i := range inc.Rects {
		if inc.Rects[i] != full.Rects[i] {
			t.Fatalf("%s: rect %d = %v, want %v", tag, i, inc.Rects[i], full.Rects[i])
		}
	}
	if inc.ViolationAt != full.ViolationAt || inc.ViolationAm != full.ViolationAm ||
		inc.ViolationMacro != full.ViolationMacro || inc.Penalty != full.Penalty {
		t.Fatalf("%s: violations/penalty (%v %v %v %v) vs (%v %v %v %v)",
			tag,
			inc.ViolationAt, inc.ViolationAm, inc.ViolationMacro, inc.Penalty,
			full.ViolationAt, full.ViolationAm, full.ViolationMacro, full.Penalty)
	}
}

// TestEvaluatorMatchesEvaluate is the differential contract of the
// incremental evaluator: across seeded random move sequences — including
// rejected moves restored through undo and varying budgets — every Eval must
// equal the from-scratch Evaluate of the same expression bit for bit.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for _, n := range []int{1, 2, 3, 5, 9, 16, 24} {
		blocks := randomBlocks(rng, n)
		expr := NewBalanced(n)
		p := DefaultEvalParams()
		inc := NewEvaluator(&expr, blocks, p)

		budgets := []geom.Rect{
			geom.RectXYWH(0, 0, 1500, 1200),
			geom.RectXYWH(10, 20, 700, 900),
			geom.RectXYWH(0, 0, 350, 300), // tight: violations accrue
			{},                            // empty: Rects must clear, not go stale
		}
		// Initial state, before any move.
		evalsEqual(t, "initial", inc.Eval(budgets[0]), Evaluate(&expr, blocks, budgets[0], p))

		steps := 400
		if n == 1 {
			steps = 10
		}
		for step := 0; step < steps; step++ {
			undo, _ := inc.Perturb(rng)
			budget := budgets[step%len(budgets)]
			evalsEqual(t, "after move", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
			if rng.Intn(2) == 0 {
				undo()
				evalsEqual(t, "after undo", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
			}
		}
	}
}

// TestEvaluatorUndoRestoresCache checks that a rejected move leaves no trace:
// perturb+undo returns the exact pre-move evaluation without recomposition
// (the follow-up move must also still be exact, exercising the journal).
func TestEvaluatorUndoRestoresCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blocks := randomBlocks(rng, 12)
	expr := NewBalanced(12)
	p := DefaultEvalParams()
	inc := NewEvaluator(&expr, blocks, p)
	budget := geom.RectXYWH(0, 0, 1000, 800)

	before := expr.String()
	ref := Evaluate(&expr, blocks, budget, p)
	for i := 0; i < 200; i++ {
		undo, _ := inc.Perturb(rng)
		undo()
		if expr.String() != before {
			t.Fatalf("step %d: undo did not restore expression", i)
		}
		evalsEqual(t, "undo", inc.Eval(budget), ref)
	}
}

// TestEvaluatorRootCurveMatchesComposition checks RootCurve against the
// from-scratch bottom-up composition Evaluate performs, for curve-only
// blocks (the shape-curve generation use of the evaluator).
func TestEvaluatorRootCurveMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	parts := make([]Block, 6)
	for i := range parts {
		w := int64(50 + rng.Intn(200))
		h := int64(50 + rng.Intn(200))
		parts[i] = Block{Curve: shape.FromBoxRotatable(w, h)}
	}
	expr := NewBalanced(len(parts))
	p := EvalParams{CompactPoints: 16}
	inc := NewEvaluator(&expr, parts, p)

	// Reference: replicate the exact bottom-up composition over the same
	// expression with the allocating shape API.
	compose := func(e *Expr) shape.Curve {
		var stack []shape.Curve
		for _, v := range e.Elems() {
			if v >= 0 {
				stack = append(stack, thinCurve(parts[v].Curve, p.CompactPoints))
				continue
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			var c shape.Curve
			if v == OpV {
				c = shape.CombineH(a, b)
			} else {
				c = shape.CombineV(a, b)
			}
			stack = append(stack, thinCurve(c, p.CompactPoints))
		}
		return stack[0]
	}
	for step := 0; step < 120; step++ {
		undo, _ := inc.Perturb(rng)
		want := compose(&expr)
		got := inc.RootCurve()
		if got.Len() != want.Len() {
			t.Fatalf("step %d: %d corners, want %d", step, got.Len(), want.Len())
		}
		gp, wp := got.Points(), want.Points()
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("step %d corner %d: %v vs %v", step, i, gp[i], wp[i])
			}
		}
		if step%3 == 0 {
			undo()
		}
	}
}

func benchAnnealState(n int) ([]Block, Expr, geom.Rect, EvalParams) {
	rng := rand.New(rand.NewSource(4242))
	return randomBlocks(rng, n), NewBalanced(n), geom.RectXYWH(0, 0, 1500, 1200), DefaultEvalParams()
}

// BenchmarkSlicingEvaluate measures the old hot path: one full from-scratch
// Evaluate per proposed move.
func BenchmarkSlicingEvaluate(b *testing.B) {
	blocks, expr, budget, p := benchAnnealState(24)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		undo, _ := expr.Perturb(rng)
		ev := Evaluate(&expr, blocks, budget, p)
		if i%2 == 0 {
			undo()
		}
		_ = ev
	}
}

// BenchmarkSlicingEvaluator measures the incremental path: Perturb + Eval
// per proposed move, with half the moves rejected, as in annealing.
func BenchmarkSlicingEvaluator(b *testing.B) {
	blocks, expr, budget, p := benchAnnealState(24)
	inc := NewEvaluator(&expr, blocks, p)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		undo, _ := inc.Perturb(rng)
		ev := inc.Eval(budget)
		if i%2 == 0 {
			undo()
		}
		_ = ev
	}
}

// TestEvaluatorResetMatchesEvaluate is the differential contract of arena
// reuse: one Evaluator retargeted across problems of shrinking and growing
// size — with a perturbation run between resets to dirty every arena — must
// evaluate bit-identically to a from-scratch Evaluate after every Reset.
func TestEvaluatorResetMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var reused *Evaluator
	// Shrink then regrow within (and beyond) prior capacity: 24 → 3 → 16 →
	// 2 → 24 → 40 exercises stale-arena reuse in both directions.
	for _, n := range []int{24, 3, 16, 2, 24, 40} {
		blocks := randomBlocks(rng, n)
		expr := NewBalanced(n)
		p := DefaultEvalParams()
		if reused == nil {
			reused = NewEvaluator(&expr, blocks, p)
		} else {
			reused.Reset(&expr, blocks, p)
		}

		budget := geom.RectXYWH(0, 0, 1400, 1100)
		evalsEqual(t, "reset initial", reused.Eval(budget), Evaluate(&expr, blocks, budget, p))

		// Leave the arena mid-flight dirty for the next Reset.
		for step := 0; step < 60 && n > 1; step++ {
			undo, _ := reused.Perturb(rng)
			evalsEqual(t, "reset after move", reused.Eval(budget), Evaluate(&expr, blocks, budget, p))
			if step%3 == 0 {
				undo()
				evalsEqual(t, "reset after undo", reused.Eval(budget), Evaluate(&expr, blocks, budget, p))
			}
		}
	}
}

// TestEvaluatorLongRunDifferential drives the incremental evaluator through
// 10k random moves with a ~50% rejection rate under one fixed budget — the
// exact shape of an annealing run — and checks three contracts at every
// step: the evaluation equals the from-scratch Evaluate bit for bit
// (incremental assign included), Changed lists exactly the blocks whose
// rectangles differ from the state the caller last acted on, and a rejected
// move's undo restores every rectangle exactly.
func TestEvaluatorLongRunDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	n := 24
	blocks := randomBlocks(rng, n)
	expr := NewBalanced(n)
	p := DefaultEvalParams()
	inc := NewEvaluator(&expr, blocks, p)
	budget := geom.RectXYWH(0, 0, 1500, 1200)

	shadow := make([]geom.Rect, n) // the last state the caller accepted or rolled back to
	copy(shadow, inc.Eval(budget).Rects)

	for step := 0; step < 10_000; step++ {
		undo, _ := inc.Perturb(rng)
		ev := inc.Eval(budget)
		evalsEqual(t, "long-run", ev, Evaluate(&expr, blocks, budget, p))

		inChanged := make(map[int32]bool, len(inc.Changed()))
		for _, b := range inc.Changed() {
			if inChanged[b] {
				t.Fatalf("step %d: block %d reported changed twice", step, b)
			}
			inChanged[b] = true
		}
		for i := range shadow {
			if (ev.Rects[i] != shadow[i]) != inChanged[int32(i)] {
				t.Fatalf("step %d: block %d changed=%v but Changed reports %v (rect %v -> %v)",
					step, i, ev.Rects[i] != shadow[i], inChanged[int32(i)], shadow[i], ev.Rects[i])
			}
		}

		if rng.Intn(2) == 0 {
			undo()
			ev2 := inc.Eval(budget)
			for i := range shadow {
				if ev2.Rects[i] != shadow[i] {
					t.Fatalf("step %d: undo left rect %d = %v, want %v", step, i, ev2.Rects[i], shadow[i])
				}
			}
		} else {
			for _, b := range inc.Changed() {
				shadow[b] = ev.Rects[b]
			}
		}
	}
}

// TestResyncSwapDifferential pins the incremental operand–operator
// resync (resyncSwap: three relinked nodes + path recomposition) bit-
// identical to a full re-parse over 10k random swaps. For every M3 move
// the incremental evaluator's Eval must equal a from-scratch Evaluate of
// the same expression exactly, the repaired parent index must equal the
// one a full rebuild derives, and a rejected move must leave no trace.
// Accepted and rejected moves interleave randomly, across expression
// sizes from the trivial to a large level.
func TestResyncSwapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	budget := geom.RectXYWH(0, 0, 1600, 1300)
	p := DefaultEvalParams()

	checkParents := func(inc *Evaluator, tag string) {
		t.Helper()
		got := append([]int32(nil), inc.parent...)
		inc.rebuildParents()
		for i := range got {
			if got[i] != inc.parent[i] {
				t.Fatalf("%s: parent[%d] = %d, want %d", tag, i, got[i], inc.parent[i])
			}
		}
	}

	swaps := 0
	for _, n := range []int{2, 3, 4, 7, 13, 24, 40} {
		blocks := randomBlocks(rng, n)
		expr := NewBalanced(n)
		inc := NewEvaluator(&expr, blocks, p)
		inc.Eval(budget)

		for step := 0; swaps < 10_000 && step < 6_000; step++ {
			undo, kind := inc.Perturb(rng)
			isSwap := kind == MoveOperandOperatorSwap && inc.move.I != inc.move.J
			if isSwap {
				swaps++
				if inc.reparsed {
					t.Fatalf("n=%d swap %d: incremental repair fell back to a re-parse", n, swaps)
				}
			}
			ev := inc.Eval(budget)
			if isSwap || swaps%37 == 0 {
				evalsEqual(t, "after swap", ev, Evaluate(&expr, blocks, budget, p))
				if isSwap {
					checkParents(inc, "after swap")
				}
			}
			if rng.Intn(2) == 0 {
				undo()
				if isSwap {
					evalsEqual(t, "after swap undo", inc.Eval(budget), Evaluate(&expr, blocks, budget, p))
					checkParents(inc, "after swap undo")
				}
			}
		}
	}
	if swaps < 10_000 {
		t.Fatalf("only %d operand–operator swaps exercised, want 10000", swaps)
	}
}
