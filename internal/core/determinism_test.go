package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sched"
)

// fingerprint serializes everything observable about a placement run —
// macro positions and orientations, level count, flips, the full trace,
// and the complete progress-event stream in delivery order — so two runs
// can be compared byte for byte. setup adjusts the shared options (seed 42,
// trace on, three restart chains) before the run, e.g. to pick the
// scheduler.
func fingerprint(t *testing.T, setup func(*Options)) string {
	t.Helper()
	d := miniSoC(t)
	opt := DefaultOptions()
	opt.Seed = 42
	opt.Trace = true
	opt.Restarts = 3 // chain tasks join subtree tasks in the same pool
	setup(&opt)
	var sb strings.Builder
	opt.Progress = func(ev Progress) { fmt.Fprintf(&sb, "ev %+v\n", ev) }
	res, err := Place(context.Background(), d, opt)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	fmt.Fprintf(&sb, "levels %d flips %d\n", res.Levels, res.Flips)
	for _, tl := range res.Trace {
		fmt.Fprintf(&sb, "trace %+v\n", tl)
	}
	for _, m := range d.Macros() {
		fmt.Fprintf(&sb, "macro %d %v %v %v\n", m, res.Placement.Pos[m], res.Placement.Orient[m], res.Placement.Placed[m])
	}
	return sb.String()
}

// withParallelism sizes the scheduler Place builds for itself.
func withParallelism(par int) func(*Options) {
	return func(o *Options) { o.Parallelism = par }
}

// TestPlaceDeterminismMatrix is the scheduler's central promise: the
// placement, the trace, and the progress-event stream are byte-identical
// at every combination of scheduler width and GOMAXPROCS. Run under -race
// in CI, it also proves the fork-join recursion is race-free.
func TestPlaceDeterminismMatrix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for _, par := range []int{1, 2, 8} {
			got := fingerprint(t, withParallelism(par))
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("GOMAXPROCS=%d parallelism=%d: run fingerprint differs from serial reference\n--- got ---\n%s\n--- want ---\n%s",
					procs, par, got, want)
			}
		}
	}
}

// TestPlaceSchedBorrowedPool: a caller-supplied pool (the flows harness
// shares one across candidates) must produce the same placement as the
// pool Place builds for itself.
func TestPlaceSchedBorrowedPool(t *testing.T) {
	own := fingerprint(t, withParallelism(4))

	pool := sched.NewPool(4)
	defer pool.Close()
	borrowed := fingerprint(t, func(o *Options) { o.Sched = pool })
	if borrowed != own {
		t.Fatal("borrowed-pool placement differs from own-pool placement")
	}
}
