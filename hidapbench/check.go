package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/placement"
)

// checkMacros is the per-operation legality gate of a macro placement:
// every macro placed, inside the die, and no two macros overlapping.
func checkMacros(pl *placement.Placement) error {
	if !pl.AllMacrosPlaced() {
		return fmt.Errorf("macros left unplaced")
	}
	if err := pl.MacrosInsideDie(); err != nil {
		return err
	}
	if a := pl.MacroOverlapArea(); a != 0 {
		return fmt.Errorf("macros overlap by %d DBU²", a)
	}
	return nil
}

// checkCells is the gate after standard-cell placement: checkMacros, and
// every movable cell placed inside the die.
func checkCells(pl *placement.Placement) error {
	if err := checkMacros(pl); err != nil {
		return err
	}
	d := pl.D
	for i := range d.Cells {
		switch d.Cells[i].Kind {
		case netlist.KindComb, netlist.KindFlop:
		default:
			continue
		}
		id := netlist.CellID(i)
		if !pl.Placed[id] {
			return fmt.Errorf("cell %s left unplaced", d.Cells[i].Name)
		}
		if r := pl.Rect(id); !d.Die.ContainsRect(r) {
			return fmt.Errorf("cell %s at %v escapes die %v", d.Cells[i].Name, r, d.Die)
		}
	}
	return nil
}

// fingerprint hashes every cell's placed flag, position and orientation.
func fingerprint(pl *placement.Placement) string {
	h := sha256.New()
	var buf [17]byte
	for i := range pl.Pos {
		buf[0] = 0
		if pl.Placed[i] {
			buf[0] = 1
		}
		binary.LittleEndian.PutUint64(buf[1:], uint64(pl.Pos[i].X))
		binary.LittleEndian.PutUint64(buf[9:], uint64(pl.Pos[i].Y))
		h.Write(buf[:])
		h.Write([]byte{byte(pl.Orient[i])})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// diffRows reports the first difference between two row sets ("" when
// they are equal).
func diffRows(a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows versus %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("row %d: %q versus %q", i, a[i], b[i])
		}
	}
	return ""
}
