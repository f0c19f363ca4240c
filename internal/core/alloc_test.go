package core

import (
	"context"
	"testing"

	"repro/internal/shape"
	"repro/internal/slicing"
)

// TestComposePartsWarmAllocs checks that a warm composition anneal takes its
// incremental evaluator from the composer pool: it must allocate fewer
// objects than building one evaluator for the same parts does. What it does
// allocate is the anneal RNG, its closures and the returned Pareto curve.
func TestComposePartsWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	parts := make([]shape.Curve, 9)
	blocks := make([]slicing.Block, len(parts))
	for i := range parts {
		parts[i] = shape.FromBoxRotatable(int64(100+13*i), int64(70+29*(i%4)))
		blocks[i] = slicing.Block{Curve: parts[i]}
	}
	e := slicing.NewBalanced(len(parts))
	fresh := testing.AllocsPerRun(20, func() {
		slicing.NewEvaluator(&e, blocks, slicing.EvalParams{CompactPoints: composeCompact})
	})

	composeParts(context.Background(), parts, 5) // warm the pool
	warm := testing.AllocsPerRun(20, func() { composeParts(context.Background(), parts, 5) })
	if warm >= fresh {
		t.Fatalf("warm composeParts allocates %v objects/run, a fresh evaluator %v: evaluator not reused", warm, fresh)
	}
}
