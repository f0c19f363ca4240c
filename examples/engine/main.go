// Engine: the long-lived run model, end to end.
//
// One hidap.Engine runs a mini evaluation suite (two circuits × three
// flows) through its bounded worker pool: one circuit job per
// (circuit, flow), completions streamed from Results as they land. It then
// shows the warm-cache effect: a second job on an already-served design
// skips Gseq construction.
//
//	go run ./examples/engine
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/circuits"
	"repro/hidap"
)

func main() {
	ctx := context.Background()
	eng := hidap.NewEngine(
		hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(1)),
		hidap.EngineOptions{Workers: 4},
	)
	defer eng.Close()

	// A mini suite: two scaled-down paper circuits, all three flows.
	c1, err := circuits.SuiteSpec("c1")
	if err != nil {
		log.Fatal(err)
	}
	c1.Scale = 1000
	c8, err := circuits.SuiteSpec("c8")
	if err != nil {
		log.Fatal(err)
	}
	c8.Scale = 1000

	// Subscribe before submitting so no completion is missed.
	results := eng.Results()
	fmt.Println("submitting 2 circuits x 3 flows through the engine:")
	jobs := 0
	for _, spec := range []circuits.Spec{c1, c8} {
		for _, fl := range []hidap.Flow{hidap.FlowIndEDA, hidap.FlowHiDaP, hidap.FlowHandFP} {
			spec := spec
			if _, err := eng.Submit(ctx, hidap.Job{
				Circuit: &spec, Flow: fl, Label: fmt.Sprintf("%s/%s", spec.Name, fl),
			}); err != nil {
				log.Fatal(err)
			}
			jobs++
		}
	}
	for ; jobs > 0; jobs-- {
		tk := <-results
		res, err := tk.Result()
		if err != nil {
			log.Fatalf("%s: %v", tk.Label(), err)
		}
		fmt.Printf("  [done] %-10s WL %.4f m, WNS %.1f%%\n", tk.Label(), res.Metrics.WirelengthM, res.Metrics.WNSPct)
	}

	// Warm-cache demo: two identical jobs on one design. The second one
	// finds the design and its sequential graph in the engine cache and
	// draws annealing scratch from the shared pool.
	d := circuits.Generate(c1).Design
	for _, run := range []string{"cold", "warm"} {
		start := time.Now()
		t, err := eng.Submit(ctx, hidap.Job{
			Design: d, Key: "demo", Placer: "hidap", Label: run,
			Config: hidap.NewConfig(hidap.WithEffort(hidap.EffortLow), hidap.WithSeed(7)),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := t.Wait(ctx); err != nil {
			log.Fatal(err)
		}
		<-results // the stream carries these completions too
		fmt.Printf("\n%s same-design job: %v", run, time.Since(start).Round(time.Millisecond))
	}
	st := eng.Stats()
	fmt.Printf("\n\nengine served %d jobs; %d cached designs, %d cached circuits\n",
		st.Completed, st.CachedDesigns, st.CachedCircuits)
}
