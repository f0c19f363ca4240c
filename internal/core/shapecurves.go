// Package core implements the HiDaP flow of the paper: shape-curve
// generation over the hierarchy tree (§IV-A), the recursive block
// floorplan (Algorithm 2) with hierarchical declustering, target-area
// assignment and dataflow-driven layout generation, and the macro-flipping
// post-process (Algorithm 1).
package core

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/anneal"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/shape"
	"repro/internal/slicing"
)

// ShapeCurves is SΓ: for every hierarchy node with macros beneath it, the
// shape curve of the minimal bounding boxes that can hold a slicing
// placement of those macros.
type ShapeCurves struct {
	// ByNode maps hierarchy nodes (with macros) to their curves.
	ByNode map[netlist.HierID]shape.Curve
	// ByMacro maps each macro cell to its (rotatable) leaf curve.
	ByMacro map[netlist.CellID]shape.Curve
}

// GenerateShapeCurves computes SΓ bottom-up over the hierarchy tree, once
// per design (Algorithm 1, line 4). Leaf macros contribute their two
// orientations; interior nodes compose their parts with a short
// area-minimizing anneal over slicing structures, and the union of every
// composition visited forms the node's Pareto set.
func GenerateShapeCurves(ctx context.Context, tree *hier.Tree, seed int64) *ShapeCurves {
	d := tree.D
	sc := &ShapeCurves{
		ByNode:  make(map[netlist.HierID]shape.Curve),
		ByMacro: make(map[netlist.CellID]shape.Curve),
	}
	// A reverse topological sweep is bottom-up for any valid tree, not just
	// builder-ordered ones (rebuilt hierarchies renumber nodes arbitrarily).
	order := d.HierTopo()
	for oi := len(order) - 1; oi >= 0; oi-- {
		hid := order[oi]
		if tree.SubMacros[hid] == 0 {
			continue
		}
		node := d.Node(hid)
		var parts []shape.Curve
		for _, cid := range node.Cells {
			c := d.Cell(cid)
			if c.Kind != netlist.KindMacro {
				continue
			}
			curve := shape.FromBoxRotatable(c.Width, c.Height)
			sc.ByMacro[cid] = curve
			parts = append(parts, curve)
		}
		for _, ch := range node.Children {
			if tree.SubMacros[ch] > 0 {
				parts = append(parts, sc.ByNode[ch])
			}
		}
		sc.ByNode[hid] = composeParts(ctx, parts, seed+int64(hid))
	}
	return sc
}

// Curve returns the shape curve of a declustered block.
func (sc *ShapeCurves) Curve(b *hier.Block) shape.Curve {
	if b.Macro != netlist.None {
		return sc.ByMacro[b.Macro]
	}
	if b.Node != netlist.None {
		if c, ok := sc.ByNode[b.Node]; ok {
			return c
		}
	}
	return shape.Curve{} // soft block
}

// composeCompact bounds the corner count of curves fed to composition.
const composeCompact = 16

// composer is the scratch of one composition anneal: the curve-only block
// slice, the slicing expression and the incremental evaluator over them.
// Pooled, so the anneals of every hierarchy node (and of every placement a
// process runs) reuse one set of buffers; Reset + Eval is bit-identical to
// a fresh evaluator, so reuse never changes a curve.
type composer struct {
	blocks []slicing.Block
	expr   slicing.Expr
	inc    *slicing.Evaluator
}

var composerPool = sync.Pool{New: func() any { return new(composer) }}

// composeParts builds the shape curve of a set of sub-curves under slicing
// composition. Two parts are enumerated exactly; more parts run a short
// area-optimization anneal (paper §IV-A), accumulating the Pareto union of
// every slicing structure visited.
func composeParts(ctx context.Context, parts []shape.Curve, seed int64) shape.Curve {
	switch len(parts) {
	case 0:
		return shape.Curve{}
	case 1:
		return parts[0]
	case 2:
		return shape.Union(
			shape.CombineH(parts[0], parts[1]),
			shape.CombineV(parts[0], parts[1]),
		)
	}
	// The anneal walks on an incremental evaluator over curve-only blocks:
	// it thins every part once (to composeCompact, matching the old
	// pre-compaction) and recomposes only the slicing-tree path each move
	// touches, instead of rebuilding the whole composition per move.
	c := composerPool.Get().(*composer)
	c.blocks = c.blocks[:0]
	for i := range parts {
		c.blocks = append(c.blocks, slicing.Block{Curve: parts[i]})
	}
	c.expr.SetBalanced(len(parts))
	params := slicing.EvalParams{CompactPoints: composeCompact}
	if c.inc == nil {
		c.inc = slicing.NewEvaluator(&c.expr, c.blocks, params)
	} else {
		c.inc.Reset(&c.expr, c.blocks, params)
	}
	inc := c.inc
	acc := shape.Curve{}
	var ubuf []shape.Point
	cost := func() float64 {
		c := inc.RootCurve()
		// UnionInto copies the corners into ubuf (so accumulating the
		// evaluator-owned curve stays safe across later moves) and reuses
		// the buffer every step instead of allocating a fresh candidate
		// slice per move; acc aliases ubuf between calls, which
		// UnionInto's in-place prune tolerates.
		acc, ubuf = shape.UnionInto(ubuf, acc, c)
		return float64(c.MinArea())
	}
	anneal.Run(ctx,
		anneal.Options{Seed: seed, MovesPerRound: 24, MaxRounds: 30, Alpha: 0.88, StallRounds: 8},
		cost,
		func(rng *rand.Rand) func() {
			undo, _ := inc.Perturb(rng)
			return undo
		},
		nil,
	)
	// The pooled scratch keeps only buffers: zero the block entries (the
	// evaluator aliases them) so the parts' curves are not retained.
	clear(c.blocks)
	composerPool.Put(c)
	return acc
}
