//go:build !race

package ate_test

const raceEnabled = false
