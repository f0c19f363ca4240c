package hidap

import (
	"context"

	"repro/internal/eval"
	"repro/internal/place"
	"repro/internal/sta"
)

// Report is the uniform measurement record of a placed design: wirelength,
// congestion, timing, sequential-graph size and run bookkeeping, with flat
// JSON marshalling. Use Stats.Annotate to add the placer's runtime and flip
// count.
type Report = eval.Report

// STAOptions configures the synthetic timing model used by Evaluate; the
// zero value is calibrated to the die by CalibrateSTA.
type STAOptions = sta.Options

// Evaluate measures a fully placed design (macros and standard cells) under
// the shared metric models and returns one Report. The placement is not
// modified. Timing wire delay is calibrated to the die (see CalibrateSTA).
func Evaluate(ctx context.Context, d *Design, pl *Placement) (*Report, error) {
	return eval.Evaluate(ctx, d, pl, eval.Options{})
}

// CalibrateSTA fits the wire-delay coefficient of the timing model to a
// design's die: a stage crossing ~70% of the die half-perimeter consumes
// the full wire budget. Fields set explicitly in base pass through.
func CalibrateSTA(d *Design, base STAOptions) STAOptions {
	return eval.CalibrateSTA(d, base)
}

// PlaceStdCells runs the standard-cell global placer over a design whose
// macros are already placed. A cancelled ctx aborts between placement
// rounds and returns ctx.Err().
func PlaceStdCells(ctx context.Context, pl *Placement) error {
	return place.Run(ctx, pl, place.DefaultOptions())
}
