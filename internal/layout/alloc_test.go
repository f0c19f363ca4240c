package layout

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/slicing"
)

// TestMoverProposeUndoAllocs pins the annealing step of a layout chain —
// mover.Propose (Perturb + incremental Eval + costState.update) followed by
// mover.Undo — at zero steady-state allocations, the budget allocfree
// enforces statically on the //hidapvet:hotpath annotations.
func TestMoverProposeUndoAllocs(t *testing.T) {
	p := benchProblem(24)
	nb := len(p.Blocks)
	blocks := make([]slicing.Block, nb)
	for i := range p.Blocks {
		blocks[i] = p.Blocks[i].Block
	}
	var cs costState
	cs.init(p, nil)
	var expr, best slicing.Expr
	expr.SetBalanced(nb)
	inc := slicing.NewEvaluator(&expr, blocks, slicing.DefaultEvalParams())
	m := mover{inc: inc, cs: &cs, region: p.Region, expr: &expr, best: &best}
	m.Cost() // prime centers and contributions

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 128; i++ {
		m.Propose(rng)
		if i%2 == 0 {
			m.Undo()
		}
	}
	i := 0
	avg := testing.AllocsPerRun(400, func() {
		m.Propose(rng)
		if i%2 == 0 {
			m.Undo()
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Propose/Undo cycle allocates %.2f objects/run, want 0", avg)
	}
}

// TestSolveWarmAllocs checks that a warm single-chain Solve runs on pooled
// scratch, its incremental evaluator included: it must allocate fewer
// objects than building one evaluator for the same blocks does. What it
// does allocate is the Result with its Rects and Expr copies, the anneal
// RNG and the mover handed to anneal.RunModel.
func TestSolveWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	p := benchProblem(12)
	blocks := make([]slicing.Block, len(p.Blocks))
	for i := range p.Blocks {
		blocks[i] = p.Blocks[i].Block
	}
	e := slicing.NewBalanced(len(blocks))
	fresh := testing.AllocsPerRun(20, func() { slicing.NewEvaluator(&e, blocks, slicing.DefaultEvalParams()) })

	opt := DefaultOptions()
	opt.Effort = EffortLow
	Solve(context.Background(), p, opt) // warm the pool
	warm := testing.AllocsPerRun(20, func() { Solve(context.Background(), p, opt) })
	if warm >= fresh {
		t.Fatalf("warm Solve allocates %v objects/run, a fresh evaluator %v: evaluator not reused", warm, fresh)
	}
}
