// Package render draws floorplans, standard-cell density maps and dataflow
// diagrams as SVG — the static counterpart of the paper's "interactive
// graphic tool ... to model and visualize the dataflow of complex designs"
// (Fig. 9). Output is deterministic and uses no external assets.
package render

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/placement"
)

// canvas accumulates SVG primitives mapped from die to image coordinates
// (SVG y grows downward; die y grows upward, so y flips).
type canvas struct {
	w     io.Writer
	die   geom.Rect
	px    float64 // image width in pixels
	py    float64
	scale float64
}

func newCanvas(w io.Writer, die geom.Rect, widthPx int) *canvas {
	scale := float64(widthPx) / float64(die.W)
	c := &canvas{
		w: w, die: die,
		px: float64(widthPx), py: float64(die.H) * scale, scale: scale,
	}
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		c.px, c.py, c.px, c.py)
	fmt.Fprintf(w, `<rect x="0" y="0" width="%.0f" height="%.0f" fill="#ffffff" stroke="#000000"/>`+"\n", c.px, c.py)
	return c
}

func (c *canvas) xy(p geom.Point) (float64, float64) {
	return float64(p.X-c.die.X) * c.scale, c.py - float64(float64(p.Y-c.die.Y)*c.scale)
}

func (c *canvas) rect(r geom.Rect, fill, stroke string, opacity float64) {
	x, y := c.xy(geom.Pt(r.X, r.Y2()))
	fmt.Fprintf(c.w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="%s" fill-opacity="%.2f"/>`+"\n",
		x, y, float64(r.W)*c.scale, float64(r.H)*c.scale, fill, stroke, opacity)
}

func (c *canvas) line(a, b geom.Point, stroke string, width float64) {
	x1, y1 := c.xy(a)
	x2, y2 := c.xy(b)
	fmt.Fprintf(c.w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (c *canvas) text(p geom.Point, s string, size float64) {
	x, y := c.xy(p)
	fmt.Fprintf(c.w, `<text x="%.1f" y="%.1f" font-size="%.0f" font-family="monospace">%s</text>`+"\n",
		x, y, size, s)
}

func (c *canvas) close() { fmt.Fprintln(c.w, "</svg>") }

// Floorplan draws the die, macros (dark) and port positions of a placement.
func Floorplan(w io.Writer, pl *placement.Placement, widthPx int) {
	c := newCanvas(w, pl.D.Die, widthPx)
	for _, m := range pl.D.Macros() {
		if !pl.Placed[m] {
			continue
		}
		c.rect(pl.Rect(m), "#5a6b7a", "#223", 0.9)
	}
	for _, p := range pl.D.Ports() {
		pos := pl.D.PortPos(p)
		r := geom.RectXYWH(pos.X-pl.D.Die.W/200, pos.Y-pl.D.Die.H/200, pl.D.Die.W/100, pl.D.Die.H/100)
		c.rect(r, "#cc4444", "#400", 1)
	}
	c.close()
}

// BlockTrace draws one HiDaP recursion level: block rectangles with macro
// counts, the multi-level evolution of the paper's Fig. 1.
func BlockTrace(w io.Writer, die geom.Rect, level core.LevelTrace, widthPx int) {
	c := newCanvas(w, die, widthPx)
	for _, b := range level.Blocks {
		fill := "#dddddd"
		if b.MacroCount > 0 {
			fill = "#8a9bab"
		}
		c.rect(b.Rect, fill, "#333", 0.85)
		if b.MacroCount > 0 {
			c.text(b.Rect.Center(), fmt.Sprintf("%d", b.MacroCount), 14)
		}
	}
	c.close()
}

// DensityMap draws a standard-cell density heat map (Fig. 9 style): white
// through red by utilization, macros hatched gray.
func DensityMap(w io.Writer, pl *placement.Placement, dm *metrics.DensityMap, widthPx int) {
	die := pl.D.Die
	c := newCanvas(w, die, widthPx)
	peak := dm.Peak()
	if peak <= 0 {
		peak = 1
	}
	for by := 0; by < dm.Bins; by++ {
		for bx := 0; bx < dm.Bins; bx++ {
			r := binRect(die, dm.Bins, bx, by)
			if dm.IsMacro(bx, by) {
				c.rect(r, "#777777", "none", 0.9)
				continue
			}
			v := dm.At(bx, by) / peak
			c.rect(r, heat(v), "none", 0.9)
		}
	}
	for _, m := range pl.D.Macros() {
		if pl.Placed[m] {
			c.rect(pl.Rect(m), "none", "#000", 1)
		}
	}
	c.close()
}

// heat maps 0..1 to a white→yellow→red ramp.
func heat(v float64) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	r := 255
	g := int(255 * (1 - float64(0.7*v)))
	b := int(255 * math.Pow(1-v, 2))
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// Dataflow draws a Gdf block floorplan with affinity edges (Fig. 9d):
// each node is a colored box at its position, arrows weighted and shaded by
// affinity.
func Dataflow(w io.Writer, die geom.Rect, gdf *dataflow.Graph, aff [][]float64,
	rects []geom.Rect, terminals []geom.Point, widthPx int) {

	c := newCanvas(w, die, widthPx)
	pos := func(i int) geom.Point {
		if i < len(rects) {
			return rects[i].Center()
		}
		t := i - len(rects)
		if t < len(terminals) {
			return terminals[t]
		}
		return die.Center()
	}
	// Max affinity for shading.
	maxAff := 0.0
	for i := range aff {
		for j := range aff[i] {
			if aff[i][j] > maxAff {
				maxAff = aff[i][j]
			}
		}
	}
	if maxAff == 0 {
		maxAff = 1
	}
	for i := range gdf.Nodes {
		for j := i + 1; j < len(gdf.Nodes); j++ {
			if i >= len(aff) || j >= len(aff[i]) || aff[i][j] == 0 {
				continue
			}
			v := aff[i][j] / maxAff
			width := 1 + float64(4*v)
			shade := int(200 * (1 - v))
			c.line(pos(i), pos(j), fmt.Sprintf("#%02x%02xff", shade, shade), width)
		}
	}
	palette := []string{"#e5a33b", "#5ab45a", "#c05a5a", "#5a7ac0", "#b45ab4", "#5ab4b4"}
	for i := range gdf.Nodes {
		n := &gdf.Nodes[i]
		if n.Class == dataflow.ClassBlock && i < len(rects) {
			c.rect(rects[i], palette[i%len(palette)], "#333", 0.8)
			c.text(rects[i].Center(), n.Name, 12)
		} else {
			p := pos(i)
			r := geom.RectXYWH(p.X-die.W/100, p.Y-die.H/100, die.W/50, die.H/50)
			c.rect(r, "#444444", "#000", 1)
		}
	}
	c.close()
}

// DensityASCII renders a density map as text for terminals and logs.
func DensityASCII(dm *metrics.DensityMap) string {
	ramp := " .:-=+*#%@"
	peak := dm.Peak()
	if peak <= 0 {
		peak = 1
	}
	out := make([]byte, 0, (dm.Bins+1)*dm.Bins)
	for by := dm.Bins - 1; by >= 0; by-- {
		for bx := 0; bx < dm.Bins; bx++ {
			if dm.IsMacro(bx, by) {
				out = append(out, 'M')
				continue
			}
			v := dm.At(bx, by) / peak
			idx := int(v * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			out = append(out, ramp[idx])
		}
		out = append(out, '\n')
	}
	return string(out)
}

func binRect(die geom.Rect, n, bx, by int) geom.Rect {
	x0 := die.X + die.W*int64(bx)/int64(n)
	x1 := die.X + die.W*int64(bx+1)/int64(n)
	y0 := die.Y + die.H*int64(by)/int64(n)
	y1 := die.Y + die.H*int64(by+1)/int64(n)
	return geom.RectXYWH(x0, y0, x1-x0, y1-y0)
}
