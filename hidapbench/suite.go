package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/circuits"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flows"
	"repro/internal/handfp"
	"repro/internal/hier"
	"repro/internal/indeda"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/sta"
)

// suite is the paper's Table II/III evaluation, the calls
// `hidap-bench -table2 -table3` makes: every suite circuit through IndEDA,
// HiDaP (best of three λ) and handFP, each followed by standard-cell
// placement and measurement. One unit is one whole pass.
type suite struct {
	specs []circuits.Spec
	opt   flows.Options
	gens  []*circuits.Generated
}

var suiteFlows = []flows.Flow{flows.FlowIndEDA, flows.FlowHiDaP, flows.FlowHandFP}

func newSuite(tiny bool, seed int64) *suite {
	s := &suite{specs: suiteSpecs(tiny), opt: flows.DefaultOptions()}
	s.opt.Seed = seed
	s.opt.Parallelism = runtime.NumCPU()
	if tiny {
		s.opt.Effort = layout.EffortLow
	}
	return s
}

// suiteSpecs is the paper's eight circuits at scale divisor 100, or one
// circuit at divisor 2000 for the self-tests.
func suiteSpecs(tiny bool) []circuits.Spec {
	specs := circuits.Suite()
	scale := 100
	if tiny {
		specs, scale = specs[:1], 2000
	}
	for i := range specs {
		specs[i].Scale = scale
	}
	return specs
}

// generate builds each circuit and its Gseq (the one derived input the
// flow harness reuses across flows), traced as two layers.
func generate(specs []circuits.Spec, tr *tracer) []*circuits.Generated {
	gens := make([]*circuits.Generated, len(specs))
	for i, spec := range specs {
		sp := tr.begin("circuits.generate", -1, spec.Name)
		gens[i] = circuits.Generate(spec)
		tr.end(sp)
		sp = tr.begin("seqgraph.build", -1, spec.Name)
		gens[i].SeqGraph()
		tr.end(sp)
	}
	return gens
}

func (s *suite) setup(_ context.Context, tr *tracer) error {
	s.gens = generate(s.specs, tr)
	return nil
}

func (s *suite) unit(ctx context.Context, _ int, tr *tracer) (*unitOut, error) {
	out := &unitOut{}
	var rows []*flows.Metrics
	var pls []*placement.Placement
	for _, g := range s.gens {
		for _, f := range suiteFlows {
			t0 := time.Now()
			var (
				m   *flows.Metrics
				pl  *placement.Placement
				err error
			)
			if tr == nil {
				m, pl, err = flows.Run(ctx, g, f, s.opt)
			} else {
				m, pl, err = s.tracedRun(ctx, tr, g, f)
			}
			out.lat = append(out.lat, time.Since(t0).Seconds())
			o := op{name: g.Spec.Name + "/" + string(f), err: err}
			if err == nil {
				o.err = checkCells(pl)
				rows = append(rows, m)
				pls = append(pls, pl)
			}
			out.ops = append(out.ops, o)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
	}
	flows.Normalize(rows)
	for i, r := range rows {
		out.rows = append(out.rows, fmt.Sprintf("%s %s wl=%s norm=%s grc=%s wns=%s tns=%s lambda=%s seq=%d/%d fp=%s",
			r.Circuit, r.Flow, fmtFloat(r.WirelengthM), fmtFloat(r.WLnorm), fmtFloat(r.CongestionPct),
			fmtFloat(r.WNSPct), fmtFloat(r.TNSns), fmtFloat(r.Lambda), r.SeqNodes, r.SeqEdges, fingerprint(pls[i])))
	}
	out.data = rows
	return out, nil
}

// quality reads Table II's HiDaP row and the summed wirelength of every
// scored placement off the first pass.
func (s *suite) quality(_ context.Context, first *unitOut) (map[string]float64, []op, error) {
	rows := first.data.([]*flows.Metrics)
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no rows")
	}
	q := map[string]float64{}
	var wl float64
	var grc []float64
	for _, r := range rows {
		wl += r.WirelengthM
		if r.Flow == flows.FlowHiDaP {
			grc = append(grc, r.CongestionPct)
		}
	}
	q["wl_m"] = wl
	q["grc_mean_pct"] = mean(grc)
	for _, sum := range flows.Summarize(rows) {
		if sum.Flow == flows.FlowHiDaP {
			q["wl_norm_geomean"] = sum.WLGeoMean
			q["wns_mean_pct"] = sum.WNSMean
		}
	}
	return q, nil, nil
}

// layers times a separate shape-curve generation per circuit, outside the
// traced wall.
func (s *suite) layers(ctx context.Context, m map[string]float64) error {
	for _, g := range s.gens {
		m["core.shapecurves_s"] += timeShapeCurves(ctx, hier.New(g.Design), s.opt.Seed)
	}
	return ctx.Err()
}

// timeShapeCurves times one core.GenerateShapeCurves call.
func timeShapeCurves(ctx context.Context, tree *hier.Tree, seed int64) float64 {
	t0 := time.Now()
	core.GenerateShapeCurves(ctx, tree, seed)
	return time.Since(t0).Seconds()
}

// tracedRun is flows.Run composed from its layer calls, with a span around
// each. It must compute exactly what flows.Run computes; the determinism
// check compares its rows with the untraced pass bit for bit.
func (s *suite) tracedRun(ctx context.Context, tr *tracer, g *circuits.Generated, f flows.Flow) (*flows.Metrics, *placement.Placement, error) {
	job := g.Spec.Name + "/" + string(f)
	root := tr.begin("flows.run", -1, job)
	defer tr.end(root)
	d := g.Design
	var (
		pl     *placement.Placement
		lambda float64
		err    error
	)
	switch f {
	case flows.FlowIndEDA:
		sp := tr.begin("indeda.place", root, job)
		pl, err = indeda.Place(ctx, d, indeda.Options{Seed: s.opt.Seed, HighEffort: true, WallWeight: 0.4})
		tr.end(sp)
		if err == nil {
			err = tracedCellPlace(ctx, tr, root, job, pl)
		}
	case flows.FlowHandFP:
		sp := tr.begin("handfp.place", root, job)
		pl, err = handfp.Place(ctx, d, g.Intent, handfp.Options{Seed: s.opt.Seed})
		tr.end(sp)
		if err == nil {
			err = tracedCellPlace(ctx, tr, root, job, pl)
		}
	case flows.FlowHiDaP:
		pl, lambda, err = s.tracedHiDaP(ctx, tr, root, job, g)
	}
	if err != nil {
		return nil, nil, err
	}
	rep, err := tracedEvaluate(ctx, tr, root, job, d, pl, eval.Options{Route: s.opt.Route, STA: s.opt.STA, Graph: g.SeqGraph()})
	if err != nil {
		return nil, nil, err
	}
	rep.Placer = string(f)
	rep.Lambda = lambda
	return &flows.Metrics{Circuit: g.Spec.Name, Flow: f, Report: *rep}, pl, nil
}

// tracedHiDaP mirrors the flow harness's HiDaP candidate sweep: one
// candidate per λ on one shared work-stealing pool, each macro-placed,
// cell-placed and scored by wirelength; the first best wins.
func (s *suite) tracedHiDaP(ctx context.Context, tr *tracer, parent int, job string, g *circuits.Generated) (*placement.Placement, float64, error) {
	type cand struct {
		lambda float64
		pl     *placement.Placement
		wl     float64
		err    error
	}
	cands := make([]cand, len(s.opt.Lambdas))
	pool := sched.NewPool(s.opt.Parallelism)
	grp := pool.Group(ctx)
	for i := range cands {
		i := i
		cands[i].lambda = s.opt.Lambdas[i]
		grp.Go(func(ctx context.Context) {
			c := &cands[i]
			co := core.DefaultOptions()
			co.Lambda = c.lambda
			co.Seed = s.opt.Seed
			co.Effort = s.opt.Effort
			co.Sched = pool
			co.SeqGraph = g.SeqGraph()
			co.Progress = countLevels(tr)
			sp := tr.begin("core.place", parent, job)
			res, err := core.Place(ctx, g.Design, co)
			tr.end(sp)
			if err != nil {
				c.err = err
				return
			}
			c.pl = res.Placement
			if c.err = tracedCellPlace(ctx, tr, parent, job, c.pl); c.err != nil {
				return
			}
			sp = tr.begin("metrics.hpwl", parent, job)
			c.wl = metrics.WirelengthMeters(c.pl)
			tr.end(sp)
		})
	}
	werr := grp.Wait()
	st := pool.Stats()
	pool.Close()
	tr.add("sched.tasks", float64(st.Completed))
	tr.add("sched.steals", float64(st.Steals))
	if werr != nil {
		return nil, 0, werr
	}
	best := -1
	for i := range cands {
		if cands[i].err != nil {
			return nil, 0, cands[i].err
		}
		if best < 0 || cands[i].wl < cands[best].wl {
			best = i
		}
	}
	return cands[best].pl, cands[best].lambda, nil
}

// countLevels counts the StageLevel progress events of one placement and
// the blocks they floorplanned.
func countLevels(tr *tracer) core.ProgressFunc {
	if tr == nil {
		return nil
	}
	return func(p core.Progress) {
		if p.Stage == core.StageLevel {
			tr.add("core.levels", 1)
			tr.add("core.level_blocks", float64(p.Blocks))
		}
	}
}

// tracedCellPlace runs the shared standard-cell placer under a span and
// counts the cells it moved.
func tracedCellPlace(ctx context.Context, tr *tracer, parent int, job string, pl *placement.Placement) error {
	sp := tr.begin("place.run", parent, job)
	err := place.Run(ctx, pl, place.DefaultOptions())
	tr.end(sp)
	tr.add("place.calls", 1)
	tr.add("place.cells", float64(movableCells(pl.D)))
	return err
}

func movableCells(d *netlist.Design) int {
	n := 0
	for i := range d.Cells {
		if k := d.Cells[i].Kind; k == netlist.KindComb || k == netlist.KindFlop {
			n++
		}
	}
	return n
}

// tracedEvaluate is eval.Evaluate composed from its model calls.
func tracedEvaluate(ctx context.Context, tr *tracer, parent int, job string, d *netlist.Design, pl *placement.Placement, opt eval.Options) (*eval.Report, error) {
	ev := tr.begin("eval.evaluate", parent, job)
	defer tr.end(ev)
	if opt.Route.GcellBins == 0 {
		opt.Route = route.DefaultOptions()
	}
	r := &eval.Report{Design: d.Name}
	sp := tr.begin("metrics.hpwl", ev, job)
	r.WirelengthM = metrics.WirelengthMeters(pl)
	tr.end(sp)
	sp = tr.begin("route.estimate", ev, job)
	r.CongestionPct = route.Estimate(pl, opt.Route).OverflowPct
	tr.end(sp)
	st := opt.Graph.Stats()
	r.SeqNodes, r.SeqEdges = st.Nodes, st.Edges
	sp = tr.begin("sta.analyze", ev, job)
	timing := sta.Analyze(opt.Graph, pl, eval.CalibrateSTA(d, opt.STA))
	tr.end(sp)
	r.WNSPct, r.TNSns = timing.WNSPct, timing.TNSns
	return r, ctx.Err()
}
