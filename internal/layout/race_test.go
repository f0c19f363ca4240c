//go:build race

package layout

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts, so warm-pool allocation counts are not meaningful.
const raceEnabled = true
