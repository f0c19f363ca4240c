package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomBipartite builds a cell–net incidence whose cells and nets split
// into groups that never share a pin, so seeds in some groups leave whole
// components (and any pinless cell) unreachable.
func randomBipartite(rng *rand.Rand) *Bipartite {
	nCells := 1 + rng.Intn(300)
	nNets := 1 + rng.Intn(200)
	groups := 1 + rng.Intn(4)
	var pinCell, pinNet []int32
	for p := rng.Intn(3 * nCells); p > 0; p-- {
		g := rng.Intn(groups)
		c := int32(rng.Intn(nCells))
		n := int32(rng.Intn(nNets))
		if int(c)%groups != g || int(n)%groups != g {
			continue
		}
		pinCell = append(pinCell, c)
		pinNet = append(pinNet, n)
	}
	cellCount := make([]int32, nCells)
	netCount := make([]int32, nNets)
	for i := range pinCell {
		cellCount[pinCell[i]]++
		netCount[pinNet[i]]++
	}
	return &Bipartite{
		CellNets: buildCSR(cellCount, func(place func(src, dst int32)) {
			for i := range pinCell {
				place(pinCell[i], pinNet[i])
			}
		}),
		NetCells: buildCSR(netCount, func(place func(src, dst int32)) {
			for i := range pinCell {
				place(pinNet[i], pinCell[i])
			}
		}),
	}
}

// randomQuery picks seeds (with repeats), their labels, and targets (with
// repeats, possibly overlapping the seeds).
func randomQuery(rng *rand.Rand, bp *Bipartite) (seeds, seedLabels, targets []int32) {
	n := bp.CellNets.NumVertices()
	for i := rng.Intn(6); i >= 0; i-- {
		seeds = append(seeds, int32(rng.Intn(n)))
		seedLabels = append(seedLabels, int32(rng.Intn(4)))
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		targets = append(targets, int32(rng.Intn(n)))
	}
	return seeds, seedLabels, targets
}

// unboundedLabels is the reference: the multi-source BFS run to exhaustion
// over fresh full-graph arrays, returning every cell's label.
func unboundedLabels(bp *Bipartite, seeds, seedLabels []int32) []int32 {
	labels := make([]int32, bp.CellNets.NumVertices())
	for i := range labels {
		labels[i] = Unlabeled
	}
	netSeen := make([]bool, bp.NetCells.NumVertices())
	var queue []int32
	for i, s := range seeds {
		if labels[s] != Unlabeled {
			continue
		}
		labels[s] = seedLabels[i]
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, nid := range bp.CellNets.Row(v) {
			if netSeen[nid] {
				continue
			}
			netSeen[nid] = true
			for _, c := range bp.NetCells.Row(nid) {
				if labels[c] == Unlabeled {
					labels[c] = labels[v]
					queue = append(queue, c)
				}
			}
		}
	}
	return labels
}

// TestMultiSourceLabelMatchesUnbounded: stopping once every target is
// labeled must not change any target's label, reachable or not.
func TestMultiSourceLabelMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unreachable := 0
	for trial := 0; trial < 500; trial++ {
		bp := randomBipartite(rng)
		seeds, seedLabels, targets := randomQuery(rng, bp)
		full := unboundedLabels(bp, seeds, seedLabels)
		got := bp.MultiSourceLabel(nil, seeds, seedLabels, targets)
		if len(got) != len(targets) {
			t.Fatalf("trial %d: %d labels for %d targets", trial, len(got), len(targets))
		}
		for i, c := range targets {
			if got[i] != full[c] {
				t.Fatalf("trial %d: target %d (cell %d) labeled %d, unbounded BFS says %d",
					trial, i, c, got[i], full[c])
			}
			if full[c] == Unlabeled {
				unreachable++
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no trial had an unreachable target")
	}
}

// clean reports whether the scratch is back at its between-calls state.
func (s *bfsScratch) clean() bool {
	for _, l := range s.labels {
		if l != Unlabeled {
			return false
		}
	}
	return !slices.Contains(s.netSeen, true)
}

// TestMultiSourceLabelScratchReuse: back-to-back calls on one scratch, with
// different graphs, seeds and targets, equal calls on a fresh scratch and
// leave the scratch clean.
func TestMultiSourceLabelScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	graphs := []*Bipartite{randomBipartite(rng), randomBipartite(rng)}
	var warm bfsScratch
	for trial := 0; trial < 200; trial++ {
		bp := graphs[rng.Intn(len(graphs))]
		seeds, seedLabels, targets := randomQuery(rng, bp)
		want := new(bfsScratch).label(bp, nil, seeds, seedLabels, targets)
		if got := warm.label(bp, nil, seeds, seedLabels, targets); !slices.Equal(got, want) {
			t.Fatalf("trial %d: reused scratch gives %v, fresh gives %v", trial, got, want)
		}
		if !warm.clean() {
			t.Fatalf("trial %d: scratch left dirty", trial)
		}
		if got := bp.MultiSourceLabel(nil, seeds, seedLabels, targets); !slices.Equal(got, want) {
			t.Fatalf("trial %d: pooled scratch gives %v, fresh gives %v", trial, got, want)
		}
	}
}

// TestMultiSourceLabelConcurrent: levels solve in parallel and share the
// scratch pool, across graphs of different sizes; every call must still
// match the unbounded reference.
func TestMultiSourceLabelConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type query struct {
		bp                         *Bipartite
		seeds, seedLabels, targets []int32
		want                       []int32
	}
	var queries []query
	for i := 0; i < 64; i++ {
		bp := randomBipartite(rng)
		q := query{bp: bp}
		q.seeds, q.seedLabels, q.targets = randomQuery(rng, bp)
		full := unboundedLabels(bp, q.seeds, q.seedLabels)
		for _, c := range q.targets {
			q.want = append(q.want, full[c])
		}
		queries = append(queries, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range queries {
					q := &queries[(i+w*16)%len(queries)]
					if got := q.bp.MultiSourceLabel(nil, q.seeds, q.seedLabels, q.targets); !slices.Equal(got, q.want) {
						t.Errorf("worker %d: labels %v, want %v", w, got, q.want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMultiSourceLabelAllocs pins a BFS on a warm scratch, with room in dst,
// at zero allocations: no per-call full-design arrays.
func TestMultiSourceLabelAllocs(t *testing.T) {
	d, ids := chainDesign(t)
	bp := BipartiteFromDesign(d)
	seeds := []int32{int32(ids["p"]), int32(ids["c"])}
	seedLabels := []int32{0, 1}
	targets := allCells(d)
	dst := make([]int32, 0, len(targets))
	var s bfsScratch
	s.label(bp, dst, seeds, seedLabels, targets)
	avg := testing.AllocsPerRun(100, func() {
		s.label(bp, dst, seeds, seedLabels, targets)
	})
	if avg != 0 {
		t.Fatalf("MultiSourceLabel on a warm scratch allocates %.2f objects/run, want 0", avg)
	}
}
