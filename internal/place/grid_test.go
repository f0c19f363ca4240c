package place

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// randomMacroDesign builds a die at a random offset and size with a random
// macro set: overlapping macros, zero-width or zero-height macros, macros
// flush with a die edge and macros hanging partly (or wholly) off the die.
func randomMacroDesign(rng *rand.Rand) (*netlist.Design, *placement.Placement) {
	die := geom.RectXYWH(rng.Int63n(2000)-1000, rng.Int63n(2000)-1000, 1+rng.Int63n(200_000), 1+rng.Int63n(200_000))
	b := netlist.NewBuilder("grid")
	b.SetDie(die)
	type spot struct {
		pos geom.Point
		o   geom.Orient
	}
	var spots []spot
	for i := rng.Intn(12); i >= 0; i-- {
		w, h := rng.Int63n(die.W/2+1), rng.Int63n(die.H/2+1)
		switch rng.Intn(6) {
		case 0:
			w = 0
		case 1:
			h = 0
		}
		b.AddMacro(fmt.Sprintf("m%d", i), w, h, "")
		var p geom.Point
		switch rng.Intn(5) {
		case 0: // flush with the lower-left corner
			p = geom.Pt(die.X, die.Y)
		case 1: // flush with the upper-right corner
			p = geom.Pt(die.X2()-w, die.Y2()-h)
		case 2: // partly or wholly outside the die
			p = geom.Pt(die.X-w/2+rng.Int63n(die.W+w+1)-die.W/2, die.Y2()-h/2+rng.Int63n(h+1))
		default:
			p = geom.Pt(die.X+rng.Int63n(die.W), die.Y+rng.Int63n(die.H))
		}
		spots = append(spots, spot{p, geom.Orient(rng.Intn(2) * int(geom.R90))})
	}
	d := b.MustBuild()
	pl := placement.New(d)
	for i, m := range d.Macros() {
		pl.PlaceOriented(m, spots[i].pos, spots[i].o)
	}
	return d, pl
}

// TestNewGridMatchesRescan: subtracting each macro only from the bins its
// corners span gives bit-identical capacities to rescanning every macro
// for every bin.
func TestNewGridMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		d, pl := randomMacroDesign(rng)
		opt := Options{GridBins: 1 + rng.Intn(60), TargetUtil: 0.35 + 0.45*rng.Float64()}
		g := newGrid(d, pl, nil, opt)
		for by := 0; by < g.ny; by++ {
			for bx := 0; bx < g.nx; bx++ {
				r := g.binRect(bx, by)
				usable := r.Area()
				for _, m := range d.Macros() {
					usable -= r.Intersect(pl.Rect(m)).Area()
				}
				if want := float64(usable) * opt.TargetUtil; g.cap[by*g.nx+bx] != want {
					t.Fatalf("trial %d (die %v, %d bins): bin (%d,%d) cap %v, rescan %v",
						trial, d.Die, opt.GridBins, bx, by, g.cap[by*g.nx+bx], want)
				}
			}
		}
	}
}

// fullScanNeighbor is the ring search as first written: every ring from
// radius 1, bounds-checked visits in the same order.
func fullScanNeighbor(g *grid, bx, by int) (int, int, bool) {
	maxR := max(g.nx, g.ny)
	for r := 1; r <= maxR; r++ {
		bestSpare := 0.0
		bestX, bestY := -1, -1
		visit := func(nx, ny int) {
			if nx < 0 || nx >= g.nx || ny < 0 || ny >= g.ny {
				return
			}
			ni := ny*g.nx + nx
			if spare := g.cap[ni] - g.load[ni]; spare > bestSpare {
				bestSpare = spare
				bestX, bestY = nx, ny
			}
		}
		for dx := -r; dx <= r; dx++ {
			visit(bx+dx, by-r)
			visit(bx+dx, by+r)
		}
		for dy := -r + 1; dy <= r-1; dy++ {
			visit(bx-r, by+dy)
			visit(bx+r, by+dy)
		}
		if bestX >= 0 {
			return bestX, bestY, true
		}
	}
	return -1, -1, false
}

// TestBestNeighborResumeMatchesFullScan relieves random source bins the way
// spread does — the source unloads, each chosen target loads — and checks
// that the search resumed from the last hit radius picks the same bin as a
// full scan from radius 1, ties included.
func TestBestNeighborResumeMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		g := &grid{nx: 1 + rng.Intn(20), ny: 1 + rng.Intn(20)}
		n := g.nx * g.ny
		g.cap = make([]float64, n)
		g.load = make([]float64, n)
		for i := range g.cap {
			if rng.Intn(3) > 0 { // blocked bins keep zero capacity
				g.cap[i] = float64(rng.Intn(8)) // few levels: many ties
			}
			g.load[i] = float64(rng.Intn(8))
		}
		bx, by := rng.Intn(g.nx), rng.Intn(g.ny)
		bi := by*g.nx + bx
		g.load[bi] += 100
		radius := 1
		for step := 0; step < 200; step++ {
			wx, wy, wok := fullScanNeighbor(g, bx, by)
			if fx, fy, _, ok := g.bestNeighbor(bx, by, 1); fx != wx || fy != wy || ok != wok {
				t.Fatalf("trial %d step %d: scan from r=1 picks (%d,%d,%v), reference (%d,%d,%v)",
					trial, step, fx, fy, ok, wx, wy, wok)
			}
			tx, ty, r, ok := g.bestNeighbor(bx, by, radius)
			if tx != wx || ty != wy || ok != wok {
				t.Fatalf("trial %d step %d: resumed at r=%d picks (%d,%d,%v), full scan (%d,%d,%v)",
					trial, step, radius, tx, ty, ok, wx, wy, wok)
			}
			if !ok {
				break
			}
			radius = r
			area := float64(1 + rng.Intn(3))
			g.load[bi] -= area
			g.load[ty*g.nx+tx] += area
		}
	}
}

// TestKeyedSortMatchesComparator: sorting precomputed (distance, ID) keys
// orders a bin's cells exactly as the original sort.Slice comparator did.
func TestKeyedSortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := netlist.NewBuilder("keys")
	b.SetDie(geom.RectXYWH(0, 0, 1000, 1000))
	var ids []netlist.CellID
	for i := 0; i < 400; i++ {
		ids = append(ids, b.AddComb(fmt.Sprintf("c%d", i), int64(1+rng.Intn(4))*100, ""))
	}
	d := b.MustBuild()
	pl := placement.New(d)
	for trial := 0; trial < 100; trial++ {
		for _, id := range ids {
			pl.Place(id, geom.Pt(int64(rng.Intn(20)), int64(rng.Intn(20)))) // coarse: many equal distances
		}
		c := geom.Pt(int64(rng.Intn(20)), int64(rng.Intn(20)))
		cells := slices.Clone(ids)
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		keys := make([]cellKey, len(cells))
		for i, id := range cells {
			keys[i] = cellKey{pl.Center(id).ManhattanDist(c), id}
		}
		sort.Slice(cells, func(a, b int) bool {
			da := pl.Center(cells[a]).ManhattanDist(c)
			db := pl.Center(cells[b]).ManhattanDist(c)
			if da != db {
				return da > db
			}
			return cells[a] < cells[b]
		})
		slices.SortFunc(keys, compareCellKeys)
		for i := range cells {
			if keys[i].id != cells[i] {
				t.Fatalf("trial %d: position %d holds cell %d, comparator order has %d", trial, i, keys[i].id, cells[i])
			}
		}
	}
}

// TestSolveSpreadAllocs pins a solve+spread round on a warm grid at zero
// allocations: the per-net centroid sums, the per-bin cell lists and the
// sort keys are allocated once per Run, not once per round.
func TestSolveSpreadAllocs(t *testing.T) {
	d, pl, _, _ := anchored(t)
	opt := DefaultOptions()
	opt.TargetUtil = deriveTargetUtil(d, pl)
	var movable []netlist.CellID
	for i := range d.Cells {
		if d.Cells[i].Kind == netlist.KindComb {
			movable = append(movable, netlist.CellID(i))
			pl.Place(netlist.CellID(i), d.Die.Center())
		}
	}
	g := newGrid(d, pl, movable, opt)
	g.solve(pl, movable, opt.SolveSweeps, 0.5)
	g.spread(pl, movable)
	avg := testing.AllocsPerRun(20, func() {
		g.solve(pl, movable, opt.SolveSweeps, 0.5)
		g.spread(pl, movable)
	})
	if avg != 0 {
		t.Fatalf("solve+spread round allocates %.2f objects/run, want 0", avg)
	}
}
