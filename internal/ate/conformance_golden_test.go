package ate_test

import (
	"context"
	"fmt"
	"testing"

	"steac/internal/ate"
	"steac/internal/core"
	"steac/internal/scenario"
)

// goldenMatrix is the scenario conformance matrix (internal/scenario):
// the pinned dsc chip plus seed sweeps over every randomized builtin, 21
// chips across all 5 scenarios; short mode keeps one seed per scenario.
func goldenMatrix(short bool) []struct {
	scenario string
	seed     int64
} {
	counts := []struct {
		name  string
		seeds int
	}{
		{"dsc", 1},
		{"hybrid-power", 6},
		{"p1500-lbist", 6},
		{"memory-heavy", 4},
		{"manycore", 4},
	}
	var m []struct {
		scenario string
		seed     int64
	}
	for _, c := range counts {
		n := c.seeds
		if short && n > 1 {
			n = 1
		}
		for s := 0; s < n; s++ {
			m = append(m, struct {
				scenario string
				seed     int64
			}{c.name, int64(s)})
		}
	}
	return m
}

// TestConformanceGoldens pins the ATE verdict of every conformance chip:
// the full Result of the healthy chip and of every defect variant, and the
// SHA-256 of the chip's tester file, all byte-identical to
// testdata/golden.  dsc (4.4M cycles per variant) runs only in long mode.
func TestConformanceGoldens(t *testing.T) {
	for _, c := range goldenMatrix(testing.Short()) {
		c := c
		name := fmt.Sprintf("%s/seed=%d", c.scenario, c.seed)
		t.Run(name, func(t *testing.T) {
			if c.scenario == "dsc" && (testing.Short() || raceEnabled) {
				t.Skip("dsc applies 4.4M cycles per variant; long mode without -race only")
			}
			t.Parallel()
			chip, err := scenario.GenerateByName(c.scenario, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			in, err := chip.FlowInput(false)
			if err != nil {
				t.Fatal(err)
			}
			in.BISTOptions.Workers = 1
			in.Resources.Workers = 1
			res, err := core.RunFlowContext(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			ate.CheckChipGolden(t, name, fmt.Sprintf("%s-seed%d", c.scenario, c.seed), res.Program, res.Cores)
		})
	}
}
