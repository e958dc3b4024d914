package netlist

import (
	"os"
	"os/exec"
	"sync"
	"testing"
)

// defaultLibEnv is the handshake for the first-use subprocess test below.
const defaultLibEnv = "STEAC_NETLIST_FIRST_USE"

// TestDefaultLibraryFirstUseHelper is not a test: it is the child process
// body for TestDefaultLibraryConcurrentFirstUse, entered only when the env
// handshake is set.  Two goroutines race to be the first caller of
// DefaultLibrary in a fresh process — the lazy initialization is only
// exercised once per process, so this cannot run in the shared test
// binary, where earlier tests have already built the library.
func TestDefaultLibraryFirstUseHelper(t *testing.T) {
	if os.Getenv(defaultLibEnv) == "" {
		t.Skip("subprocess helper; driven by TestDefaultLibraryConcurrentFirstUse")
	}
	var wg sync.WaitGroup
	libs := make([]*Library, 2)
	for i := range libs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			libs[i] = DefaultLibrary()
		}(i)
	}
	wg.Wait()
	if libs[0] != libs[1] {
		t.Fatal("concurrent first callers got different libraries")
	}
	if _, ok := libs[0].Cell(CellNand2); !ok {
		t.Fatal("default library lacks NAND2")
	}
}

// TestDefaultLibraryConcurrentFirstUse re-executes the test binary so two
// goroutines make the very first DefaultLibrary calls of a process.  Under
// -race the child fails on any unsynchronized lazy initialization.
func TestDefaultLibraryConcurrentFirstUse(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDefaultLibraryFirstUseHelper$", "-test.v")
	cmd.Env = append(os.Environ(), defaultLibEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("concurrent first use of DefaultLibrary failed: %v\n%s", err, out)
	}
}
