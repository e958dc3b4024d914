package ate_test

import (
	"context"
	"testing"

	"steac/internal/ate"
	"steac/internal/core"
	"steac/internal/scenario"
)

// BenchmarkATEApply applies the p1500-lbist seed-0 program (9 TAM wires, a
// 200-slot functional bus, about 140k cycles) to a fresh healthy chip per
// op: the ATE-apply layer of the lbist-verify workload.  Run it with
//
//	go test ./internal/ate -run '^$' -bench ATEApply
func BenchmarkATEApply(b *testing.B) {
	chip, err := scenario.GenerateByName("p1500-lbist", 0)
	if err != nil {
		b.Fatal(err)
	}
	in, err := chip.FlowInput(false)
	if err != nil {
		b.Fatal(err)
	}
	in.BISTOptions.Workers = 1
	in.Resources.Workers = 1
	res, err := core.RunFlowContext(context.Background(), in)
	if err != nil {
		b.Fatal(err)
	}
	prog, cores := res.Program, res.Cores
	b.ReportAllocs()
	b.ResetTimer()
	cycles := 0
	for i := 0; i < b.N; i++ {
		r, err := ate.Run(prog, ate.NewChip(prog, cores))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatalf("healthy chip failed: %d mismatches", r.Mismatches)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
