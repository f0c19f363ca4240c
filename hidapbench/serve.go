package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/circuits"
	"repro/hidap"
	"repro/internal/autocluster"
	"repro/internal/eval"
)

// serve is the design-job path of hidap-serve: a closed loop of nproc
// clients against one hidap.Engine (Workers = nproc). Each job parses a
// design JSON document, submits it (hidap placer, λ 0.5, low effort, no
// evaluation) and waits for the result. The documents are the suite
// circuits plus a flat netlist placed with autoclustering; each is sent
// several times in a seeded order, so its first job misses the engine's
// design cache and later ones hit it. One unit is one pass of all jobs
// against a fresh engine; unit k shuffles with seed and k.
type serve struct {
	specs  []circuits.Spec
	copies int
	seed   int64
	lanes  int

	gens []*circuits.Generated // the suite circuits, then the flat netlist
	docs [][]byte
	// refFP is each document's placement fingerprint from the first unit;
	// every later job on that document must reproduce it.
	refFP []string

	hitRatio    float64 // design-cache hit ratio of the last traced unit
	clusterHits float64
}

// serveJob is one finished job of a unit.
type serveJob struct {
	doc int
	pl  *hidap.Placement
}

func newServe(tiny bool, seed int64) *serve {
	specs := suiteSpecs(tiny)
	flat := circuits.Spec{Name: "flat50k", Cells: 50_000, Macros: 12, Subsystems: 3, BusWidth: 32,
		PipelineDepth: 2, Scale: 1, Seed: 7, Flat: true}
	copies := 5
	if tiny {
		flat.Name, flat.Cells, copies = "flat2k", 2_000, 2
	}
	return &serve{specs: append(specs, flat), copies: copies, seed: seed, lanes: runtime.NumCPU()}
}

func (s *serve) flat(doc int) bool { return doc == len(s.specs)-1 }

func (s *serve) setup(_ context.Context, tr *tracer) error {
	s.gens = make([]*circuits.Generated, len(s.specs))
	s.docs = make([][]byte, len(s.specs))
	for i, spec := range s.specs {
		sp := tr.begin("circuits.generate", -1, spec.Name)
		s.gens[i] = circuits.Generate(spec)
		tr.end(sp)
		sp = tr.begin("netlist.write_json", -1, spec.Name)
		var buf bytes.Buffer
		err := hidap.WriteJSON(&buf, s.gens[i].Design)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		s.docs[i] = buf.Bytes()
	}
	return nil
}

// order is the unit's seeded job sequence: every document copies times.
func (s *serve) order(k int) []int {
	var jobs []int
	for c := 0; c < s.copies; c++ {
		for d := range s.docs {
			jobs = append(jobs, d)
		}
	}
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(k)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func (s *serve) unit(ctx context.Context, k int, tr *tracer) (*unitOut, error) {
	jobs := s.order(k)
	base := hidap.NewConfig(hidap.WithLambda(0.5), hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(s.seed))
	clustered := hidap.NewConfig(hidap.WithLambda(0.5), hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(s.seed),
		hidap.WithAutocluster(hidap.DefaultAutocluster()))
	eng := hidap.NewEngine(base, hidap.EngineOptions{Workers: s.lanes})
	defer eng.Close()

	ops := make([]op, len(jobs))
	lat := make([]float64, len(jobs))
	done := make([]serveJob, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.lanes; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				doc := jobs[i]
				cfg := base
				if s.flat(doc) {
					cfg = clustered
				}
				job := fmt.Sprintf("%d:%s", i, s.specs[doc].Name)
				t0 := time.Now()
				pl, err := s.runJob(ctx, tr, eng, job, s.docs[doc], cfg)
				lat[i] = time.Since(t0).Seconds()
				ops[i] = op{name: job, err: err}
				if err == nil {
					ops[i].err = checkMacros(pl)
					done[i] = serveJob{doc: doc, pl: pl}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Determinism: every job on a document must return the placement of
	// that document's first job in the first unit (the cold one). Only a
	// legal cold placement is passed on to be scored.
	first := make([]*hidap.Placement, len(s.docs))
	fps := make([]string, len(s.docs))
	for i, j := range done {
		if j.pl == nil {
			continue
		}
		fp := fingerprint(j.pl)
		if fps[j.doc] == "" {
			fps[j.doc] = fp
			if ops[i].err == nil {
				first[j.doc] = j.pl
			}
		}
		if s.refFP == nil && fp != fps[j.doc] {
			ops[i].err = fmt.Errorf("placement %s differs from the document's cold job %s", fp, fps[j.doc])
		}
		if s.refFP != nil && fp != s.refFP[j.doc] {
			ops[i].err = fmt.Errorf("placement %s differs from the document's first job %s", fp, s.refFP[j.doc])
		}
	}
	if s.refFP == nil {
		s.refFP = fps
	}
	if tr != nil {
		st := eng.Stats()
		if n := st.DesignCacheHits + st.DesignCacheMisses; n > 0 {
			s.hitRatio = float64(st.DesignCacheHits) / float64(n)
		}
		s.clusterHits = float64(st.ClusterCacheHits)
	}
	out := &unitOut{ops: ops, lat: lat, data: first}
	for d, fp := range fps {
		out.rows = append(out.rows, fmt.Sprintf("%s fp=%s", s.specs[d].Name, fp))
	}
	return out, nil
}

// runJob is one client request: parse, submit, wait.
func (s *serve) runJob(ctx context.Context, tr *tracer, eng *hidap.Engine, job string, doc []byte, cfg *hidap.Config) (*hidap.Placement, error) {
	root := tr.begin("serve.job", -1, job)
	defer tr.end(root)
	sp := tr.begin("netlist.read_json", root, job)
	d, err := hidap.ReadJSON(bytes.NewReader(doc))
	tr.end(sp)
	tr.add("netlist.json_mb", float64(len(doc))/1e6)
	if err != nil {
		return nil, fmt.Errorf("read design: %w", err)
	}
	sp = tr.begin("engine.submit", root, job)
	t, err := eng.Submit(ctx, hidap.Job{Design: d, Placer: "hidap", Config: cfg})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	sp = tr.begin("engine.run", root, job)
	res, err := t.Wait(ctx)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	return res.Placement, nil
}

// quality scores the first unit's placement of each suite circuit after
// standard-cell placement. The flat netlist's jobs are checked for
// legality and determinism but not scored.
func (s *serve) quality(ctx context.Context, first *unitOut) (map[string]float64, []op, error) {
	pls := first.data.([]*hidap.Placement)
	circ := s.gens[:len(s.gens)-1]
	tasks, err := handFPTasks(ctx, circ, s.seed)
	if err != nil {
		return nil, nil, err
	}
	for d, g := range circ {
		if pls[d] != nil {
			tasks = append(tasks, evalTask{name: g.Spec.Name + " evaluation", pl: pls[d]})
		}
	}
	reps, ops := evaluateAll(ctx, tasks, s.lanes)
	served := make([]*eval.Report, len(circ))
	var wl float64
	k := len(circ)
	for d := range circ {
		if pls[d] == nil {
			continue
		}
		if served[d] = reps[k]; served[d] != nil {
			wl += served[d].WirelengthM
		}
		k++
	}
	return summarize(served, reps[:len(circ)], wl), ops, nil
}

// layers reads the engine's cache counters of the traced unit and times a
// separate autoclustering of the flat netlist.
func (s *serve) layers(ctx context.Context, vals map[string]float64) error {
	vals["engine.design_hit_ratio"] = s.hitRatio
	vals["engine.cluster_cache_hits"] = s.clusterHits
	flat := s.gens[len(s.gens)-1]
	t0 := time.Now()
	res, err := autocluster.Cluster(flat.Design, autocluster.DefaultParams())
	if err != nil {
		return err
	}
	vals["autocluster.cluster_s"] = time.Since(t0).Seconds()
	vals["autocluster.clusters"] = float64(res.Stats.Clusters)
	return ctx.Err()
}
