package flows

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/circuits"
	"repro/internal/layout"
	"repro/internal/placement"
)

// goldenRows pins the Table III rows of c1 and c2 (scale 400, low effort,
// seed 1) through all three flows: every metric the tables print, bit for
// bit, plus a fingerprint of every cell position. A refactor or speed-up of
// any stage (macro placement, std-cell placement, route, STA) that drifts a
// single coordinate fails here.
var goldenRows = []string{
	"c1 IndEDA wirelength_m=1.275904858 congestion_pct=36.9140625 wns_pct=-11.455021940516826 tns_ns=-0.39263042418332544 lambda=0 cells=0deb35ee70edd884",
	"c1 HiDaP wirelength_m=0.990800622 congestion_pct=28.80859375 wns_pct=-23.66272549975622 tns_ns=-0.9442398829839104 lambda=0.8 cells=81836630e2a86c67",
	"c1 handFP wirelength_m=1.156671136 congestion_pct=34.27734375 wns_pct=-13.792296440760605 tns_ns=-0.4001921014139448 lambda=0 cells=8b086090c312ce95",
	"c2 IndEDA wirelength_m=6.925037873 congestion_pct=38.76953125 wns_pct=-16.95744264859229 tns_ns=-1.3339640250260698 lambda=0 cells=a75c72bc00ceb2de",
	"c2 HiDaP wirelength_m=5.067514332 congestion_pct=31.4453125 wns_pct=-24.820138164754965 tns_ns=-1.2565028675703864 lambda=0.2 cells=59e66650c2a1d20c",
	"c2 handFP wirelength_m=6.552894954 congestion_pct=37.20703125 wns_pct=-31.366397288842563 tns_ns=-3.862565693430658 lambda=0 cells=dadbd8dadf6fcca6",
}

// placementFNV hashes every cell's placed flag, position and orientation.
func placementFNV(pl *placement.Placement) uint64 {
	h := fnv.New64a()
	var buf [18]byte
	for i := range pl.Pos {
		buf[0] = 0
		if pl.Placed[i] {
			buf[0] = 1
		}
		binary.LittleEndian.PutUint64(buf[1:], uint64(pl.Pos[i].X))
		binary.LittleEndian.PutUint64(buf[9:], uint64(pl.Pos[i].Y))
		buf[17] = byte(pl.Orient[i])
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestGoldenRows(t *testing.T) {
	if testing.Short() {
		t.Skip("golden rows place two suite circuits")
	}
	opt := DefaultOptions()
	opt.Seed = 1
	opt.Effort = layout.EffortLow
	var got []string
	for _, name := range []string{"c1", "c2"} {
		spec, err := circuits.SuiteSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Scale = 400
		g := circuits.Generate(spec)
		for _, f := range []Flow{FlowIndEDA, FlowHiDaP, FlowHandFP} {
			m, pl, err := Run(context.Background(), g, f, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", name, f, err)
			}
			got = append(got, fmt.Sprintf("%s %s wirelength_m=%v congestion_pct=%v wns_pct=%v tns_ns=%v lambda=%v cells=%016x",
				name, f, m.WirelengthM, m.CongestionPct, m.WNSPct, m.TNSns, m.Lambda, placementFNV(pl)))
		}
	}
	if len(got) != len(goldenRows) {
		t.Fatalf("got %d rows, want %d:\n%q", len(got), len(goldenRows), got)
	}
	for i := range got {
		if got[i] != goldenRows[i] {
			t.Errorf("row %d drifted:\n got %s\nwant %s", i, got[i], goldenRows[i])
		}
	}
}
