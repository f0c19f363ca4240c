// Package sta estimates design timing after placement, standing in for the
// commercial static timing analysis behind the paper's WNS/TNS metrics
// (Table III: WNS as a percentage of the clock period, TNS summed).
//
// The model works on the sequential graph: every Gseq edge is one
// register-to-register stage whose delay is an intrinsic logic delay plus a
// linear wire delay over the Manhattan distance between the placed
// positions of its endpoints. Endpoint slack is the worst incoming stage
// slack; WNS is the worst endpoint slack and TNS accumulates all negative
// endpoint slacks — exactly the quantities the paper tabulates, under a
// simulator's delay model.
package sta

import (
	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/seqgraph"
)

// Options sets the timing model.
type Options struct {
	// ClockPs is the clock period in picoseconds (default 2000).
	ClockPs float64
	// IntrinsicPs is the per-stage logic delay (default 700).
	IntrinsicPs float64
	// WirePsPerDBU is the linear wire delay (default 0.0005 ps per DBU,
	// i.e. 0.5 ps/µm at 1 DBU = 1 nm: buffered global wire).
	WirePsPerDBU float64
}

// DefaultOptions returns the synthetic technology timing parameters.
func DefaultOptions() Options {
	return Options{ClockPs: 2000, IntrinsicPs: 700, WirePsPerDBU: 0.0005}
}

// Stage describes one timed register-to-register stage.
type Stage struct {
	From, To string
	// DistDBU is the Manhattan distance between the endpoints.
	DistDBU int64
	// DelayPs and SlackPs are the stage delay and slack.
	DelayPs, SlackPs float64
}

// Result is a timing analysis.
type Result struct {
	// WNSPct is the worst negative slack as a percentage of the clock
	// period: 0 when timing closes, negative otherwise (paper convention).
	WNSPct float64
	// TNSns is the total negative slack over endpoints, in nanoseconds
	// (negative or zero).
	TNSns float64
	// ViolatingEndpoints counts Gseq nodes with negative slack.
	ViolatingEndpoints int
	// Stages counts the timed edges.
	Stages int
	// Worst is the critical stage (zero value when there are no stages).
	Worst Stage
}

// Analyze times every sequential stage of the design.
func Analyze(sg *seqgraph.Graph, pl *placement.Placement, opt Options) *Result {
	if opt.ClockPs <= 0 {
		opt = DefaultOptions()
	}
	res := &Result{}
	pos := nodePositions(sg, pl)

	worstIn := make([]float64, len(sg.Nodes)) // worst slack arriving at node
	hasIn := make([]bool, len(sg.Nodes))
	worst := 0.0
	haveWorst := false
	for u := range sg.Out {
		for _, e := range sg.Out[u] {
			res.Stages++
			dist := pos[u].ManhattanDist(pos[e.To])
			delay := opt.IntrinsicPs + float64(opt.WirePsPerDBU*float64(dist))
			slack := opt.ClockPs - delay
			if !hasIn[e.To] || slack < worstIn[e.To] {
				worstIn[e.To] = slack
				hasIn[e.To] = true
			}
			if !haveWorst || slack < res.Worst.SlackPs {
				res.Worst = Stage{
					From:    sg.Nodes[u].Name,
					To:      sg.Nodes[e.To].Name,
					DistDBU: dist,
					DelayPs: delay,
					SlackPs: slack,
				}
				haveWorst = true
			}
			if slack < worst {
				worst = slack
			}
		}
	}
	for v := range worstIn {
		if hasIn[v] && worstIn[v] < 0 {
			res.ViolatingEndpoints++
			res.TNSns += worstIn[v] / 1000 // ps → ns
		}
	}
	res.WNSPct = 100 * worst / opt.ClockPs
	if res.WNSPct > 0 {
		res.WNSPct = 0
	}
	return res
}

// nodePositions estimates every Gseq node's location: the centroid of its
// placed member cells (ports use their fixed positions; macros their placed
// outline centers). Unplaced members fall back to the die center.
func nodePositions(sg *seqgraph.Graph, pl *placement.Placement) []geom.Point {
	d := pl.D
	pos := make([]geom.Point, len(sg.Nodes))
	for i := range sg.Nodes {
		var sx, sy, n int64
		for _, cid := range sg.Nodes[i].Cells {
			var p geom.Point
			if pl.Placed[cid] {
				p = pl.Center(cid)
			} else {
				p = d.Die.Center()
			}
			sx += p.X
			sy += p.Y
			n++
		}
		if n == 0 {
			pos[i] = d.Die.Center()
			continue
		}
		pos[i] = geom.Pt(sx/n, sy/n)
	}
	return pos
}
