// Package place implements the standard-cell global placer used to measure
// every macro-placement flow, standing in for the commercial place tool of
// the paper's evaluation (§V: "Metrics are taken after placement of
// standard cells using the same tool as IndEDA").
//
// The placer is a classic quadratic scheme: Gauss–Seidel sweeps pull every
// movable cell to the centroid of its nets (fixed macros and ports anchor
// the system), interleaved with grid-based spreading that respects macro
// blockage and a density target. It is fully deterministic.
package place

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// Options tunes the placer.
type Options struct {
	// GridBins is the spreading grid resolution per axis (default 48).
	GridBins int
	// Iterations is the number of solve+spread rounds (default 6).
	Iterations int
	// SolveSweeps is the number of Gauss–Seidel sweeps per round (default 4).
	SolveSweeps int
	// TargetUtil is the bin utilization ceiling during spreading. When 0
	// it is derived from the design: 1.3 × (cell area / free area),
	// clamped to [0.35, 0.8] — the uniform-density target a production
	// global placer spreads toward.
	TargetUtil float64
}

// DefaultOptions returns the standard settings (TargetUtil auto-derived).
func DefaultOptions() Options {
	return Options{GridBins: 48, Iterations: 6, SolveSweeps: 4}
}

// Run places all movable cells (flops and combinational cells) of pl's
// design. Macros and ports must already be placed; their positions are not
// modified. A cancelled ctx aborts between solve/spread rounds and returns
// ctx.Err().
func Run(ctx context.Context, pl *placement.Placement, opt Options) error {
	d := pl.D
	if opt.GridBins <= 0 {
		opt = DefaultOptions()
	}
	if !pl.AllMacrosPlaced() {
		return fmt.Errorf("place: macros must be placed first")
	}

	movable := make([]netlist.CellID, 0, len(d.Cells))
	for i := range d.Cells {
		id := netlist.CellID(i)
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
			movable = append(movable, id)
		}
	}
	if len(movable) == 0 {
		return nil
	}

	// Every movable cell starts at the die center.
	center := d.Die.Center()
	for _, id := range movable {
		pl.Place(id, center)
	}

	if opt.TargetUtil <= 0 {
		opt.TargetUtil = deriveTargetUtil(d, pl)
	}
	grid := newGrid(d, pl, movable, opt)
	for iter := 0; iter < opt.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Damping grows over the rounds so late spreading is not undone by
		// the next quadratic solve (a light-weight stand-in for the anchor
		// pseudo-nets of production placers).
		keep := float64(iter) / float64(opt.Iterations+1)
		grid.solve(pl, movable, opt.SolveSweeps, keep)
		grid.spread(pl, movable)
	}
	// Final cleanups: keep cells inside the die and off macros.
	grid.evictFromMacros(pl, movable)
	clampAll(pl, movable)
	return nil
}

// deriveTargetUtil computes the uniform spreading density: the design's
// standard-cell area over the macro-free area, with 30% headroom.
func deriveTargetUtil(d *netlist.Design, pl *placement.Placement) float64 {
	var cellArea, macroArea int64
	for i := range d.Cells {
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
			cellArea += d.Cells[i].Area()
		case netlist.KindMacro:
			macroArea += d.Cells[i].Area()
		}
	}
	free := d.Die.Area() - macroArea
	if free <= 0 {
		return 0.8
	}
	t := 1.3 * float64(cellArea) / float64(free)
	if t < 0.35 {
		t = 0.35
	}
	if t > 0.8 {
		t = 0.8
	}
	return t
}

// solve runs Gauss–Seidel sweeps of the star net model: each pass computes
// per-net centroids, then moves every movable cell toward the mean of its
// nets' centroids, retaining a `keep` fraction of its current position.
// Fixed cells (macros, ports) keep the system anchored.
func (g *grid) solve(pl *placement.Placement, movable []netlist.CellID, sweeps int, keep float64) {
	d := pl.D
	cx, cy, cn := g.cx, g.cy, g.cn
	for s := 0; s < sweeps; s++ {
		clear(cx)
		clear(cy)
		clear(cn)
		for i := range d.Pins {
			pin := &d.Pins[i]
			if !pl.Placed[pin.Cell] {
				continue
			}
			c := pl.Center(pin.Cell)
			cx[pin.Net] += c.X
			cy[pin.Net] += c.Y
			cn[pin.Net]++
		}
		for _, id := range movable {
			cell := d.Cell(id)
			var sx, sy, n int64
			for _, pid := range cell.Pins {
				nid := d.Pin(pid).Net
				if cn[nid] < 2 {
					continue
				}
				sx += cx[nid] / cn[nid]
				sy += cy[nid] / cn[nid]
				n++
			}
			if n == 0 {
				continue
			}
			target := geom.Pt(sx/n, sy/n)
			cur := pl.Center(id)
			nx := int64(float64(keep*float64(cur.X)) + float64((1-keep)*float64(target.X)))
			ny := int64(float64(keep*float64(cur.Y)) + float64((1-keep)*float64(target.Y)))
			pl.Place(id, geom.Pt(nx-cell.Width/2, ny-cell.Height/2))
		}
	}
}

// grid is the spreading structure: bin loads and capacities with macro
// blockage subtracted, plus the scratch solve and spread reuse across
// rounds (allocated once per Run).
type grid struct {
	die        geom.Rect
	nx, ny     int
	binW, binH int64
	cap        []float64 // usable area per bin × target utilization
	load       []float64

	// spread: the movable cells bucketed by bin, in movable order — bin
	// b's cells are binCells[binStart[b]:binStart[b+1]] — plus each
	// cell's bin and the sort keys of one overfull bin.
	binStart []int32
	binCells []netlist.CellID
	cellBin  []int32
	keys     []cellKey
	// solve: per-net centroid sums and pin counts.
	cx, cy, cn []int64
}

// cellKey orders a bin's cells for relief: farthest from the bin center
// first, ties by cell ID. Distinct IDs make it a total order.
type cellKey struct {
	dist int64
	id   netlist.CellID
}

func compareCellKeys(a, b cellKey) int {
	if a.dist != b.dist {
		return cmp.Compare(b.dist, a.dist)
	}
	return cmp.Compare(a.id, b.id)
}

func newGrid(d *netlist.Design, pl *placement.Placement, movable []netlist.CellID, opt Options) *grid {
	g := &grid{die: d.Die, nx: opt.GridBins, ny: opt.GridBins}
	g.binW = (d.Die.W + int64(g.nx) - 1) / int64(g.nx)
	g.binH = (d.Die.H + int64(g.ny) - 1) / int64(g.ny)
	n := g.nx * g.ny
	g.cap = make([]float64, n)
	g.load = make([]float64, n)
	g.binStart = make([]int32, n+1)
	g.binCells = make([]netlist.CellID, len(movable))
	g.cellBin = make([]int32, len(movable))
	g.cx = make([]int64, len(d.Nets))
	g.cy = make([]int64, len(d.Nets))
	g.cn = make([]int64, len(d.Nets))

	// Usable area per bin: the bin's in-die area minus every macro's
	// overlap. A macro can only overlap the bins between the ones holding
	// its corners (binOf clamps, so macros partly outside the die are
	// covered too); the integer sums are order-free.
	usable := make([]int64, n)
	for by := 0; by < g.ny; by++ {
		for bx := 0; bx < g.nx; bx++ {
			usable[by*g.nx+bx] = g.binRect(bx, by).Area()
		}
	}
	for _, m := range d.Macros() {
		mr := pl.Rect(m)
		x0, y0 := g.binOf(geom.Pt(mr.X, mr.Y))
		x1, y1 := g.binOf(geom.Pt(mr.X2()-1, mr.Y2()-1))
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				usable[by*g.nx+bx] -= g.binRect(bx, by).Intersect(mr).Area()
			}
		}
	}
	for i, u := range usable {
		g.cap[i] = float64(u) * opt.TargetUtil
	}
	return g
}

func (g *grid) binRect(bx, by int) geom.Rect {
	r := geom.RectXYWH(g.die.X+int64(bx)*g.binW, g.die.Y+int64(by)*g.binH, g.binW, g.binH)
	return r.Intersect(g.die)
}

func (g *grid) binOf(p geom.Point) (int, int) {
	bx := int((p.X - g.die.X) / g.binW)
	by := int((p.Y - g.die.Y) / g.binH)
	if bx < 0 {
		bx = 0
	}
	if bx >= g.nx {
		bx = g.nx - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= g.ny {
		by = g.ny - 1
	}
	return bx, by
}

// spread relieves overfull bins by relocating their outermost cells to the
// least-loaded neighboring bin, repeating a few rounds. Deterministic: bins
// scan in row order, cells ordered by distance from the bin center.
func (g *grid) spread(pl *placement.Placement, movable []netlist.CellID) {
	d := pl.D
	const rounds = 3
	start := g.binStart
	for r := 0; r < rounds; r++ {
		clear(g.load)
		clear(start)
		for k, id := range movable {
			bx, by := g.binOf(pl.Center(id))
			bi := by*g.nx + bx
			g.load[bi] += float64(d.Cell(id).Area())
			g.cellBin[k] = int32(bi)
			start[bi+1]++
		}
		// Counting sort into binCells: after the fill, start[b] has
		// advanced to bin b's end, so shifting by one restores the starts.
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for k, id := range movable {
			bi := g.cellBin[k]
			g.binCells[start[bi]] = id
			start[bi]++
		}
		copy(start[1:], start[:len(start)-1])
		start[0] = 0
		moved := false
		for by := 0; by < g.ny; by++ {
			for bx := 0; bx < g.nx; bx++ {
				bi := by*g.nx + bx
				if g.load[bi] <= g.cap[bi] {
					continue
				}
				c := g.binRect(bx, by).Center()
				keys := g.keys[:0]
				for _, id := range g.binCells[start[bi]:start[bi+1]] {
					keys = append(keys, cellKey{pl.Center(id).ManhattanDist(c), id})
				}
				slices.SortFunc(keys, compareCellKeys)
				g.keys = keys
				// Relieving this bin only unloads it and loads others, so
				// no ring inside the last hit can regain spare room: each
				// search resumes at the radius where the previous one
				// stopped.
				radius := 1
				for _, k := range keys {
					if g.load[bi] <= g.cap[bi] {
						break
					}
					tx, ty, hit, ok := g.bestNeighbor(bx, by, radius)
					if !ok {
						break
					}
					radius = hit
					id := k.id
					ti := ty*g.nx + tx
					target := g.binRect(tx, ty).Center()
					area := float64(d.Cell(id).Area())
					pl.Place(id, geom.Pt(target.X-d.Cell(id).Width/2, target.Y-d.Cell(id).Height/2))
					g.load[bi] -= area
					g.load[ti] += area
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}
}

// bestNeighbor finds the nearest bin with spare capacity, scanning rings of
// growing Chebyshev radius from r0 (macro blockages can zero out whole
// neighborhoods, so adjacent-only relief deadlocks next to big macros).
// Within the first ring that has spare room it returns the first bin of
// strictly greatest spare in visit order, plus that ring's radius.
func (g *grid) bestNeighbor(bx, by, r0 int) (tx, ty, r int, ok bool) {
	maxR := g.nx
	if g.ny > maxR {
		maxR = g.ny
	}
	for r = r0; r <= maxR; r++ {
		bestSpare := 0.0
		bestX, bestY := -1, -1
		visit := func(x, y int) {
			i := y*g.nx + x
			if spare := g.cap[i] - g.load[i]; spare > bestSpare {
				bestSpare = spare
				bestX, bestY = x, y
			}
		}
		// Top and bottom rows, interleaved per column, then the left and
		// right columns, interleaved per row; off-grid bins are skipped.
		lo, hi := max(bx-r, 0), min(bx+r, g.nx-1)
		bot, top := by-r >= 0, by+r < g.ny
		for x := lo; x <= hi; x++ {
			if bot {
				visit(x, by-r)
			}
			if top {
				visit(x, by+r)
			}
		}
		lo, hi = max(by-r+1, 0), min(by+r-1, g.ny-1)
		left, right := bx-r >= 0, bx+r < g.nx
		for y := lo; y <= hi; y++ {
			if left {
				visit(bx-r, y)
			}
			if right {
				visit(bx+r, y)
			}
		}
		if bestX >= 0 {
			return bestX, bestY, r, true
		}
	}
	return -1, -1, r, false
}

// evictFromMacros pushes any cell sitting on a macro to the nearest macro
// edge.
func (g *grid) evictFromMacros(pl *placement.Placement, movable []netlist.CellID) {
	d := pl.D
	macroRects := make([]geom.Rect, 0, 8)
	for _, m := range d.Macros() {
		macroRects = append(macroRects, pl.Rect(m))
	}
	for _, id := range movable {
		c := pl.Center(id)
		for _, mr := range macroRects {
			if !mr.Contains(c) {
				continue
			}
			// Push to the nearest macro edge that stays inside the die.
			cands := [4]geom.Point{
				{X: mr.X - 1, Y: c.Y},
				{X: mr.X2() + 1, Y: c.Y},
				{X: c.X, Y: mr.Y - 1},
				{X: c.X, Y: mr.Y2() + 1},
			}
			best := geom.Point{}
			bestDist := int64(-1)
			for _, cand := range cands {
				if !g.die.Contains(cand) {
					continue
				}
				if dist := c.ManhattanDist(cand); bestDist < 0 || dist < bestDist {
					bestDist = dist
					best = cand
				}
			}
			if bestDist < 0 {
				break // macro covers the die; leave the cell be
			}
			cell := d.Cell(id)
			pl.Place(id, geom.Pt(best.X-cell.Width/2, best.Y-cell.Height/2))
			break
		}
	}
}

func clampAll(pl *placement.Placement, movable []netlist.CellID) {
	for _, id := range movable {
		r := pl.Rect(id).ClampInside(pl.D.Die)
		pl.Place(id, geom.Pt(r.X, r.Y))
	}
}
