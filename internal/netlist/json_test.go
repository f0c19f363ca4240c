package netlist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder("jt")
	b.SetDie(geom.RectXYWH(0, 0, 50_000, 40_000))
	b.SetRowHeight(1400)
	in := b.AddPort("in[0]")
	b.SetPortPos(in, geom.Pt(0, 20_000))
	g := b.AddComb("g", 2000, "")
	r := b.AddFlop("u/r[0]", "u")
	m := b.AddMacro("u/mem", 9_000, 6_000, "u")
	b.Wire("n0", in, g)
	b.Wire("n1", g, r)
	n2 := b.Net("n2")
	b.Connect(r, n2, DirOut)
	b.ConnectAt(m, n2, DirIn, geom.Pt(0, 3_000))
	d := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if d2.Name != d.Name || d2.Die != d.Die || d2.RowHeight != d.RowHeight {
		t.Errorf("header mismatch: %s %v %d", d2.Name, d2.Die, d2.RowHeight)
	}
	s1, s2 := d.Stats(), d2.Stats()
	if s1 != s2 {
		t.Errorf("stats mismatch: %+v vs %+v", s1, s2)
	}
	for i := range d.Cells {
		if d.Cells[i].Name != d2.Cells[i].Name || d.Cells[i].Kind != d2.Cells[i].Kind {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	// Hierarchy preserved.
	if d2.NodeByPath("u") == None {
		t.Error("hierarchy node lost")
	}
	// Pin offsets preserved.
	m2 := d2.CellByName("u/mem")
	found := false
	for _, pid := range d2.Cell(m2).Pins {
		if d2.Pin(pid).Offset == geom.Pt(0, 3_000) {
			found = true
		}
	}
	if !found {
		t.Error("macro pin offset lost")
	}
	// Port position preserved.
	in2 := d2.CellByName("in[0]")
	if d2.PortPos(in2) != geom.Pt(0, 20_000) {
		t.Errorf("port pos = %v", d2.PortPos(in2))
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"garbage", "{not json", "json"},
		{"bad kind", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"gizmo"}],"nets":[],"pins":[]}`, "kind"},
		{"bad net ref", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"comb","w":1,"h":1}],"nets":[],"pins":[{"cell":0,"net":5,"dir":"in"}]}`, "range"},
		{"negative die width", `{"name":"x","die":[0,0,-10,10],"cells":[{"name":"c","kind":"comb","w":1,"h":1}]}`, "die"},
		{"negative die height", `{"name":"x","die":[0,0,10,-10],"cells":[{"name":"c","kind":"comb","w":1,"h":1}]}`, "die"},
		{"negative cell width", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"comb","w":-1,"h":1}]}`, "negative size"},
		{"negative cell height", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"flop","w":1,"h":-1}]}`, "negative size"},
		{"negative macro width", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"m","kind":"macro","w":-4,"h":4}]}`, "negative size"},
		{"zero macro height", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"m","kind":"macro","w":4}]}`, "positive size"},
		{"port_pos cell out of range", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"p","kind":"port"}],"port_pos":[[3,0,0]]}`, "out of range"},
		{"port_pos negative cell", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"p","kind":"port"}],"port_pos":[[-1,0,0]]}`, "out of range"},
		{"port_pos short tuple", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"p","kind":"port"}],"port_pos":[[0,5]]}`, "[cell, x, y]"},
		{"port_pos long tuple", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"p","kind":"port"}],"port_pos":[[0,5,5,5]]}`, "[cell, x, y]"},
		{"port_pos on non-port", `{"name":"x","die":[0,0,10,10],"cells":[{"name":"c","kind":"comb","w":1,"h":1}],"port_pos":[[0,5,5]]}`, "not a port"},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.frag)
		}
	}
}

// TestReadJSONMacrosFitDie: ReadJSON rejects macros that cannot all be
// placed inside the die, and accepts a tight legal set, rotation included.
func TestReadJSONMacrosFitDie(t *testing.T) {
	cases := []struct {
		name, cells, frag string // frag "" means the design is legal
	}{
		{"macro fits in neither orientation", `{"name":"m","kind":"macro","w":25,"h":5}`, "m (25x5) fits the 20x10 die in neither orientation"},
		{"total macro area over die", `{"name":"a","kind":"macro","w":12,"h":10},{"name":"b","kind":"macro","w":12,"h":10}`, "total macro area 240 exceeds the 20x10 die area 200"},
		// a fits only rotated.
		{"legal", `{"name":"a","kind":"macro","w":5,"h":15},{"name":"b","kind":"macro","w":5,"h":10},{"name":"c","kind":"comb","w":1,"h":1}`, ""},
	}
	for _, c := range cases {
		src := `{"name":"x","die":[0,0,20,10],"cells":[` + c.cells + `]}`
		_, err := ReadJSON(strings.NewReader(src))
		switch {
		case c.frag == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.frag != "" && (err == nil || !strings.Contains(err.Error(), c.frag)):
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.frag)
		}
	}
}

// TestReadJSONZeroDieAutoSizes: an all-zero die is the documented request
// for an auto-sized die, not a malformed one.
func TestReadJSONZeroDieAutoSizes(t *testing.T) {
	src := `{"name":"x","die":[0,0,0,0],"cells":[{"name":"m","kind":"macro","w":40,"h":30},{"name":"p","kind":"port"}],"port_pos":[[1,0,5]]}`
	d, err := ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Die.Empty() {
		t.Errorf("die = %v, want auto-sized", d.Die)
	}
	if got := d.PortPos(1); got != geom.Pt(0, 5) {
		t.Errorf("port pos = %v", got)
	}
}

func TestJSONDeterministicOutput(t *testing.T) {
	d := buildTiny(t)
	var a, b bytes.Buffer
	if err := WriteJSON(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, d); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("JSON output nondeterministic")
	}
}
