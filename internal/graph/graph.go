// Package graph provides the compact connectivity structures used to
// traverse Gnet: directed cell-level fanout/fanin adjacency and a bipartite
// cell–net incidence, both in CSR (compressed sparse row) form, plus the
// multi-source BFS used for glue-logic area assignment (paper §IV-C, which
// cites Then et al., "The more the merrier", for the traversal pattern).
//
// High-fanout nets make a materialized cell-to-cell clique quadratic; the
// bipartite form keeps every traversal linear in the number of pins.
package graph

import (
	"sync"

	"repro/internal/netlist"
)

// CSR is a compressed adjacency: the neighbors of vertex v are
// Targets[Offsets[v]:Offsets[v+1]].
type CSR struct {
	Offsets []int32
	Targets []int32
}

// Row returns the adjacency list of vertex v.
func (c *CSR) Row(v int32) []int32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// NumVertices returns the number of rows.
func (c *CSR) NumVertices() int { return len(c.Offsets) - 1 }

// buildCSR packs (src, dst) pairs, provided via a counting pass and a fill
// pass, into CSR form. count[v] must hold the out-degree of v.
func buildCSR(count []int32, fill func(place func(src, dst int32))) CSR {
	n := len(count)
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + count[i]
	}
	targets := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	fill(func(src, dst int32) {
		targets[cursor[src]] = dst
		cursor[src]++
	})
	return CSR{Offsets: offsets, Targets: targets}
}

// Directed is the cell-level directed view of Gnet. Fanout lists, for each
// cell, every sink cell of every net the cell drives; Fanin is the reverse.
// Both are linear in the pin count because every net has at most one driver.
type Directed struct {
	Fanout CSR
	Fanin  CSR
}

// DirectedFromDesign builds the directed adjacency of a design.
func DirectedFromDesign(d *netlist.Design) *Directed {
	n := len(d.Cells)
	outCount := make([]int32, n)
	inCount := make([]int32, n)
	for i := range d.Nets {
		net := &d.Nets[i]
		driver := netlist.CellID(netlist.None)
		sinks := 0
		for _, pid := range net.Pins {
			p := d.Pin(pid)
			if p.Dir == netlist.DirOut {
				driver = p.Cell
			} else {
				sinks++
			}
		}
		if driver == netlist.None || sinks == 0 {
			continue
		}
		outCount[driver] += int32(sinks)
		for _, pid := range net.Pins {
			p := d.Pin(pid)
			if p.Dir == netlist.DirIn {
				inCount[p.Cell]++
			}
		}
	}
	fillBoth := func(place func(src, dst int32), reverse bool) {
		for i := range d.Nets {
			net := &d.Nets[i]
			driver := netlist.CellID(netlist.None)
			for _, pid := range net.Pins {
				if p := d.Pin(pid); p.Dir == netlist.DirOut {
					driver = p.Cell
				}
			}
			if driver == netlist.None {
				continue
			}
			for _, pid := range net.Pins {
				p := d.Pin(pid)
				if p.Dir == netlist.DirIn {
					if reverse {
						place(int32(p.Cell), int32(driver))
					} else {
						place(int32(driver), int32(p.Cell))
					}
				}
			}
		}
	}
	return &Directed{
		Fanout: buildCSR(outCount, func(place func(src, dst int32)) { fillBoth(place, false) }),
		Fanin:  buildCSR(inCount, func(place func(src, dst int32)) { fillBoth(place, true) }),
	}
}

// Bipartite is the cell–net incidence of Gnet, direction-blind.
type Bipartite struct {
	CellNets CSR // cell -> nets it touches
	NetCells CSR // net -> cells on it
}

// BipartiteFromDesign builds the bipartite incidence of a design.
func BipartiteFromDesign(d *netlist.Design) *Bipartite {
	cellCount := make([]int32, len(d.Cells))
	netCount := make([]int32, len(d.Nets))
	for i := range d.Pins {
		cellCount[d.Pins[i].Cell]++
		netCount[d.Pins[i].Net]++
	}
	return &Bipartite{
		CellNets: buildCSR(cellCount, func(place func(src, dst int32)) {
			for i := range d.Pins {
				place(int32(d.Pins[i].Cell), int32(d.Pins[i].Net))
			}
		}),
		NetCells: buildCSR(netCount, func(place func(src, dst int32)) {
			for i := range d.Pins {
				place(int32(d.Pins[i].Net), int32(d.Pins[i].Cell))
			}
		}),
	}
}

// Unlabeled marks cells not reached by MultiSourceLabel.
const Unlabeled int32 = -1

// pending marks a target cell the BFS has not reached yet; it lives only
// inside one MultiSourceLabel call.
const pending int32 = -2

// bfsScratch is the per-call state of MultiSourceLabel, pooled so a BFS per
// floorplanning level allocates no full-design arrays. Outside a call every
// label is Unlabeled and every net unseen; a call resets only the entries
// it touched.
type bfsScratch struct {
	labels  []int32 // per cell
	netSeen []bool  // per net
	queue   []int32 // cells labeled so far, in BFS order
	nets    []int32 // nets marked seen
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// fit sizes the scratch for a graph with nCells cells and nNets nets.
func (s *bfsScratch) fit(nCells, nNets int) {
	if len(s.labels) != nCells {
		s.labels = make([]int32, nCells) //hidapvet:allow allocfree one-time warm-up per graph size; steady state pinned by TestMultiSourceLabelAllocs
		for i := range s.labels {
			s.labels[i] = Unlabeled
		}
	}
	if len(s.netSeen) != nNets {
		s.netSeen = make([]bool, nNets) //hidapvet:allow allocfree one-time warm-up per graph size; steady state pinned by TestMultiSourceLabelAllocs
	}
}

// MultiSourceLabel runs a multi-source BFS over cells (stepping cell → net
// → cell) from the given seed cells and appends to dst the label of every
// target cell, in target order: the label of its nearest seed, with ties
// resolved to the seed dequeued first (deterministic given the seed
// order), or Unlabeled when no seed reaches it. Seed labels must be
// non-negative; a repeated seed keeps its first label.
//
// A cell's label is final the moment the BFS reaches it, so the search
// stops as soon as every target is labeled; only when some target is
// unreachable does it run to exhaustion.
func (bp *Bipartite) MultiSourceLabel(dst, seeds, seedLabels, targets []int32) []int32 {
	s := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(s)
	return s.label(bp, dst, seeds, seedLabels, targets)
}

// label is MultiSourceLabel on an explicit scratch.
//
//hidapvet:hotpath
func (s *bfsScratch) label(bp *Bipartite, dst, seeds, seedLabels, targets []int32) []int32 {
	s.fit(bp.CellNets.NumVertices(), bp.NetCells.NumVertices())
	labels, netSeen := s.labels, s.netSeen
	queue, nets := s.queue[:0], s.nets[:0]

	remaining := 0
	for _, t := range targets {
		if labels[t] == Unlabeled {
			labels[t] = pending
			remaining++
		}
	}
	for i, c := range seeds {
		if labels[c] >= 0 {
			continue
		}
		if labels[c] == pending {
			remaining--
		}
		labels[c] = seedLabels[i]
		queue = append(queue, c)
	}
	for head := 0; head < len(queue) && remaining > 0; head++ {
		v := queue[head]
		for _, nid := range bp.CellNets.Row(v) {
			if netSeen[nid] {
				continue
			}
			netSeen[nid] = true
			nets = append(nets, nid)
			for _, c := range bp.NetCells.Row(nid) {
				if labels[c] >= 0 {
					continue
				}
				if labels[c] == pending {
					remaining--
				}
				labels[c] = labels[v]
				queue = append(queue, c)
			}
		}
	}

	for _, t := range targets {
		dst = append(dst, max(labels[t], Unlabeled)) // pending reads as Unlabeled
	}
	for _, c := range queue {
		labels[c] = Unlabeled
	}
	for _, t := range targets {
		labels[t] = Unlabeled
	}
	for _, nid := range nets {
		netSeen[nid] = false
	}
	s.queue, s.nets = queue, nets
	return dst
}
