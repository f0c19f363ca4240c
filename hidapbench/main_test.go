package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/circuits"
	"repro/internal/geom"
	"repro/internal/handfp"
	"repro/internal/place"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, err := newWorkload(w.Name, true, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// TestTinyWorkloadsEmitEveryMetric runs a tiny configuration of every
// workload, untraced and traced, and checks the result line carries every
// metric BENCHMARK.json names, with its unit.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 1, trace: traced, outDir: t.TempDir(), tiny: true}
			rec, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			res := rec.Result
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit == "" || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, traced, d.Name, m, d.Unit)
				}
			}
			if res.Attempted < 1 || res.Failed > res.Attempted || res.Correct != (res.Failed == 0) {
				t.Errorf("%s trace=%v: inconsistent counts %+v", w.Name, traced, res)
			}
			for _, f := range rec.Failures {
				if strings.HasPrefix(f, "trace-determinism") {
					t.Errorf("%s: %s", w.Name, f)
				}
				t.Logf("%s trace=%v: failed operation %s", w.Name, traced, f)
			}
			line, err := json.Marshal(res)
			var back map[string]json.RawMessage
			if err == nil {
				err = json.Unmarshal(line, &back)
			}
			if err != nil || len(back) != 4 {
				t.Errorf("%s: result line %s does not have exactly four keys (%v)", w.Name, line, err)
			}
		}
	}
}

// TestCheckerCountsIllegalPlacements feeds the gate placements with
// overlapping macros, a macro outside the die and an unplaced cell.
func TestCheckerCountsIllegalPlacements(t *testing.T) {
	spec := circuits.Suite()[0]
	spec.Scale = 2000
	g := circuits.Generate(spec)
	pl, err := handfp.Place(context.Background(), g.Design, g.Intent, handfp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMacros(pl); err != nil {
		t.Fatalf("handFP placement should be legal: %v", err)
	}
	macros := g.Design.Macros()

	overlap := pl.Clone()
	overlap.PlaceOriented(macros[1], overlap.Pos[macros[0]], overlap.Orient[macros[0]])
	if err := checkMacros(overlap); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping macros passed the gate: %v", err)
	}
	outside := pl.Clone()
	outside.Pos[macros[0]] = geom.Pt(g.Design.Die.X2(), g.Design.Die.Y2())
	if err := checkMacros(outside); err == nil {
		t.Error("a macro outside the die passed the gate")
	}
	if err := checkCells(pl); err == nil {
		t.Error("a placement with unplaced standard cells passed the cell gate")
	}
	cells := pl.Clone()
	if err := place.Run(context.Background(), cells, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := checkCells(cells); err != nil {
		t.Errorf("a placed design failed the cell gate: %v", err)
	}

	// Through the harness accounting, the overlap is one failed operation.
	ops := []op{{name: "legal", err: checkMacros(pl)}, {name: "overlap", err: checkMacros(overlap)}}
	failed := 0
	for _, o := range ops {
		if o.err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
}

func TestLatencyTail(t *testing.T) {
	lat := make([]float64, 40)
	for i := range lat {
		lat[i] = float64(40 - i)
	}
	js := latencyStats(lat)
	if js.Samples != 40 || js.Beyond != 10 || js.TailS != 30 || js.TailPercentile != 75 || js.P50S != 20.5 {
		t.Errorf("latencyStats = %+v", js)
	}
	if js := latencyStats([]float64{1, 2, 3}); js.TailS != 3 || js.Beyond != 0 {
		t.Errorf("short sample: %+v", js)
	}
}

func TestSelfTime(t *testing.T) {
	p := span{Start: 0, End: 10}
	kids := []span{{Start: 1, End: 4}, {Start: 3, End: 5}, {Start: 8, End: 12}}
	if c := covered(p, kids); c != 6 {
		t.Errorf("covered = %v, want 6", c)
	}
	tr := newTracer()
	root := tr.begin("a", -1, "j")
	tr.end(tr.begin("b", root, "j"))
	tr.end(root)
	var nilTr *tracer
	nilTr.end(nilTr.begin("x", -1, "j"))
	sum := tr.summary(1)
	if len(sum) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, l := range sum {
		if l.Layer == "a" && l.SelfS > l.BusyS {
			t.Errorf("self time %v exceeds busy time %v", l.SelfS, l.BusyS)
		}
	}
}
