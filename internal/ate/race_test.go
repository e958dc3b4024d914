//go:build race

package ate_test

// raceEnabled reports a -race build; the race detector slows the cycle
// loop about tenfold, so the multi-million-cycle cells are skipped.
const raceEnabled = true
