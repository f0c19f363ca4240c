package main

import (
	"context"
	"fmt"
	"sync"

	"repro/circuits"
	"repro/internal/eval"
	"repro/internal/handfp"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/seqgraph"
)

// The macro and serve workloads time macro placement alone, and a
// macro-only placement has no wirelength to speak of: macros and ports
// meet only through registers, so every net has at most one placed pin.
// Their quality metrics therefore score placements the way the paper
// scores every flow, after the timed region: standard cells placed by the
// shared placer, then measured, with handFP placed and measured the same
// way as the wirelength reference. Every scored placement is checked like
// a timed operation.

// evalTask is one macro placement to complete and measure.
type evalTask struct {
	name string
	pl   *placement.Placement
	sg   *seqgraph.Graph // nil: built from the placement's design
}

// evaluateAll runs the tasks on lanes goroutines. A task that fails or
// fails its check has a nil report and a failed op.
func evaluateAll(ctx context.Context, tasks []evalTask, lanes int) ([]*eval.Report, []op) {
	reps := make([]*eval.Report, len(tasks))
	ops := make([]op, len(tasks))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				reps[i], ops[i] = evaluatePlacement(ctx, tasks[i])
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()
	return reps, ops
}

// evaluatePlacement places the standard cells of a copy of a macro
// placement, checks it, and measures it.
func evaluatePlacement(ctx context.Context, t evalTask) (*eval.Report, op) {
	pl := t.pl.Clone()
	o := op{name: t.name}
	if err := place.Run(ctx, pl, place.DefaultOptions()); err != nil {
		o.err = fmt.Errorf("cell placement: %w", err)
		return nil, o
	}
	if o.err = checkCells(pl); o.err != nil {
		return nil, o
	}
	rep, err := eval.Evaluate(ctx, pl.D, pl, eval.Options{Graph: t.sg})
	if err != nil {
		o.err = fmt.Errorf("evaluate: %w", err)
		return nil, o
	}
	return rep, o
}

// handFPTasks places each circuit's handFP reference.
func handFPTasks(ctx context.Context, gens []*circuits.Generated, seed int64) ([]evalTask, error) {
	tasks := make([]evalTask, len(gens))
	for i, g := range gens {
		pl, err := handfp.Place(ctx, g.Design, g.Intent, handfp.Options{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s handFP reference: %w", g.Spec.Name, err)
		}
		tasks[i] = evalTask{name: g.Spec.Name + " handFP reference", pl: pl, sg: g.SeqGraph()}
	}
	return tasks, nil
}

// summarize turns the scored HiDaP placement of each circuit (nil when it
// failed) and its handFP reference into the quality metrics; wl sums the
// wirelength of every scored HiDaP placement.
func summarize(best, refs []*eval.Report, wl float64) map[string]float64 {
	var norms, wns, grc []float64
	for i, b := range best {
		if b == nil {
			continue
		}
		wns = append(wns, b.WNSPct)
		grc = append(grc, b.CongestionPct)
		if refs[i] != nil {
			norms = append(norms, b.WirelengthM/refs[i].WirelengthM)
		}
	}
	return map[string]float64{
		"wl_m":            wl,
		"wl_norm_geomean": metrics.GeoMean(norms),
		"wns_mean_pct":    mean(wns),
		"grc_mean_pct":    mean(grc),
	}
}
