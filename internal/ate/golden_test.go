package ate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"steac/internal/pattern"
	"steac/internal/sched"
	"steac/internal/testinfo"
)

var update = flag.Bool("update", false, "rewrite the ATE result goldens under testdata/")

// goldenRun is one chip variant's full tester verdict.
type goldenRun struct {
	Variant string
	Result  Result
}

// goldenFile pins one program: the SHA-256 of its tester file (the whole
// cycle stream, so an equal hash proves Stream emits the same cycles) and
// the Result of applying it to the healthy chip and to every defect
// variant.
type goldenFile struct {
	Chip          string
	ProgramSHA256 string
	Results       []goldenRun
}

// defectVariants enumerates the chip variants a golden records: the
// healthy chip, a defect in every core, a stuck-at-0 on every TAM output
// wire, and — when the program carries an EXTEST session — an open on
// every interconnect and a bridge on every pair of them.
func defectVariants(prog *pattern.Program, cores []*testinfo.Core) (names []string, opts [][]Option) {
	add := func(name string, o ...Option) {
		names = append(names, name)
		opts = append(opts, o)
	}
	add("healthy")
	for _, c := range cores {
		add("core="+c.Name, WithCoreDefect(c.Name))
	}
	for w := 0; w < prog.TamWidth; w++ {
		add(fmt.Sprintf("wire=%d", w), WithStuckTamWire(w))
	}
	for _, l := range prog.Sessions {
		if l.Extest == nil {
			continue
		}
		n := len(l.Extest.Wires)
		for i := 0; i < n; i++ {
			add(fmt.Sprintf("open=%d", i), WithOpenInterconnect(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				add(fmt.Sprintf("bridge=%d,%d", i, j), WithBridgedInterconnects(i, j))
			}
		}
	}
	return names, opts
}

// programSHA256 hashes the program's tester file without materializing it.
func programSHA256(t testing.TB, prog *pattern.Program) string {
	t.Helper()
	h := sha256.New()
	if err := pattern.WriteProgramFile(h, prog); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkChipGolden applies prog to every defect variant of the chip and
// compares the results and the tester-file hash with
// testdata/golden/<file>.json byte for byte; -update rewrites the file.
func checkChipGolden(t *testing.T, chip, file string, prog *pattern.Program, cores []*testinfo.Core) {
	t.Helper()
	g := goldenFile{Chip: chip, ProgramSHA256: programSHA256(t, prog)}
	names, opts := defectVariants(prog, cores)
	for i, name := range names {
		r, err := Run(prog, NewChip(prog, cores, opts[i]...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g.Results = append(g.Results, goldenRun{Variant: name, Result: r})
	}
	got, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", file+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		var w goldenFile
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatalf("%s: unreadable golden: %v", path, err)
		}
		if w.ProgramSHA256 != g.ProgramSHA256 {
			t.Errorf("%s: tester file hash %s, golden %s", chip, g.ProgramSHA256, w.ProgramSHA256)
		}
		for i := range g.Results {
			if i >= len(w.Results) {
				t.Errorf("%s: extra variant %s", chip, g.Results[i].Variant)
				continue
			}
			gj, _ := json.Marshal(g.Results[i])
			wj, _ := json.Marshal(w.Results[i])
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s: variant %s\n got  %s\n want %s", chip, g.Results[i].Variant, gj, wj)
			}
		}
		t.Fatalf("%s diverges from %s", chip, path)
	}
}

// TestMiniGoldens pins the miniature chip under all three schedulers and
// with an EXTEST session, so every Stream and Chip path (scan, functional,
// BIST padding, time-shared pins, interconnect test) is covered by a
// golden.
func TestMiniGoldens(t *testing.T) {
	for _, c := range []struct {
		name     string
		schedule func([]sched.Test, sched.Resources) (*sched.Schedule, error)
	}{
		{"session", sessionBased},
		{"serial", sched.Serial},
		{"nonsession", sched.NonSessionBased},
	} {
		prog, _, _ := buildProgram(t, miniRes(), c.schedule)
		checkChipGolden(t, "mini/"+c.name, "mini-"+c.name, prog, miniCores())
	}
	prog, _, _ := extestProgram(t)
	checkChipGolden(t, "mini/extest", "mini-extest", prog, miniCores())
}
