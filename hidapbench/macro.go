package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/layout"
	"repro/internal/placement"
	"repro/internal/sched"
)

// macro is HiDaP macro placement alone: core.Place on every suite circuit
// at each of the paper's three λ, EffortHigh, on prebuilt Gseq, hierarchy
// tree and bipartite graph, with a benchmark-owned work-stealing pool. No
// standard-cell placement runs in the timed region. One unit is one sweep
// at one placement seed; unit k uses seed+k.
type macro struct {
	specs   []circuits.Spec
	lambdas []float64
	effort  layout.Effort
	seed    int64
	lanes   int
	gens    []*circuits.Generated
	trees   []*hier.Tree
	bps     []*graph.Bipartite
	stats   sched.Stats // pool traffic of the last traced unit
}

// macroResult is one core.Place outcome of a sweep.
type macroResult struct {
	circuit int
	lambda  float64
	pl      *placement.Placement
}

func newMacro(tiny bool, seed int64) *macro {
	m := &macro{
		specs:   suiteSpecs(tiny),
		lambdas: []float64{0.2, 0.5, 0.8},
		effort:  layout.EffortHigh,
		seed:    seed,
		lanes:   runtime.NumCPU(),
	}
	if tiny {
		m.effort = layout.EffortLow
	}
	return m
}

func (m *macro) setup(_ context.Context, tr *tracer) error {
	m.gens = generate(m.specs, tr)
	m.trees = make([]*hier.Tree, len(m.gens))
	m.bps = make([]*graph.Bipartite, len(m.gens))
	for i, g := range m.gens {
		sp := tr.begin("hier.new", -1, g.Spec.Name)
		m.trees[i] = hier.New(g.Design)
		tr.end(sp)
		sp = tr.begin("graph.bipartite", -1, g.Spec.Name)
		m.bps[i] = graph.BipartiteFromDesign(g.Design)
		tr.end(sp)
	}
	return nil
}

func (m *macro) unit(ctx context.Context, k int, tr *tracer) (*unitOut, error) {
	seed := m.seed + int64(k)
	pool := sched.NewPool(m.lanes)
	defer pool.Close()
	before := pool.Stats()
	out := &unitOut{}
	var results []macroResult
	for ci, g := range m.gens {
		res := make([]macroResult, len(m.lambdas))
		ops := make([]op, len(m.lambdas))
		lat := make([]float64, len(m.lambdas))
		grp := pool.Group(ctx)
		for li, lambda := range m.lambdas {
			li, lambda := li, lambda
			grp.Go(func(ctx context.Context) {
				job := fmt.Sprintf("%s/λ%.1f", g.Spec.Name, lambda)
				co := core.DefaultOptions()
				co.Lambda = lambda
				co.Seed = seed
				co.Effort = m.effort
				co.SeqGraph = g.SeqGraph()
				co.Tree = m.trees[ci]
				co.Bipartite = m.bps[ci]
				co.Sched = pool
				co.Progress = countLevels(tr)
				sp := tr.begin("core.place", -1, job)
				t0 := time.Now()
				r, err := core.Place(ctx, g.Design, co)
				lat[li] = time.Since(t0).Seconds()
				ops[li] = op{name: job, err: err}
				tr.end(sp)
				if err != nil {
					return
				}
				if r.Levels == 0 {
					ops[li].err = fmt.Errorf("no floorplanned levels")
				} else {
					ops[li].err = checkMacros(r.Placement)
				}
				res[li] = macroResult{circuit: ci, lambda: lambda, pl: r.Placement}
			})
		}
		if err := grp.Wait(); err != nil {
			return nil, err
		}
		out.ops = append(out.ops, ops...)
		out.lat = append(out.lat, lat...)
		for li, r := range res {
			if r.pl == nil {
				continue
			}
			if ops[li].err == nil {
				results = append(results, r) // only legal placements are scored
			}
			out.rows = append(out.rows, fmt.Sprintf("%s λ=%s fp=%s", g.Spec.Name, fmtFloat(r.lambda), fingerprint(r.pl)))
		}
	}
	if tr != nil {
		after := pool.Stats()
		m.stats = sched.Stats{Completed: after.Completed - before.Completed, Steals: after.Steals - before.Steals}
	}
	out.data = results
	return out, nil
}

// quality scores every placement of the first sweep after standard-cell
// placement; per circuit the λ with the best wirelength stands for HiDaP,
// as in the suite.
func (m *macro) quality(ctx context.Context, first *unitOut) (map[string]float64, []op, error) {
	results := first.data.([]macroResult)
	refs, err := handFPTasks(ctx, m.gens, m.seed)
	if err != nil {
		return nil, nil, err
	}
	tasks := refs
	for _, r := range results {
		g := m.gens[r.circuit]
		tasks = append(tasks, evalTask{name: fmt.Sprintf("%s/λ%.1f evaluation", g.Spec.Name, r.lambda), pl: r.pl, sg: g.SeqGraph()})
	}
	reps, ops := evaluateAll(ctx, tasks, m.lanes)
	best := make([]*eval.Report, len(m.gens))
	var wl float64
	for i, r := range results {
		rep := reps[len(refs)+i]
		if rep == nil {
			continue
		}
		wl += rep.WirelengthM
		if b := best[r.circuit]; b == nil || rep.WirelengthM < b.WirelengthM {
			best[r.circuit] = rep
		}
	}
	return summarize(best, reps[:len(refs)], wl), ops, nil
}

func (m *macro) layers(ctx context.Context, vals map[string]float64) error {
	vals["sched.tasks"] = float64(m.stats.Completed)
	vals["sched.steals"] = float64(m.stats.Steals)
	for _, t := range m.trees {
		vals["core.shapecurves_s"] += timeShapeCurves(ctx, t, m.seed)
	}
	return ctx.Err()
}
