package durable

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestFrameMatchesJSONEnvelope pins the frame byte for byte against
// json.Marshal of the {crc,rec} envelope the catalog has always written,
// so files from either writer read the same.
func TestFrameMatchesJSONEnvelope(t *testing.T) {
	// Records are json.Marshal output: compact, with HTML escaped.
	for _, rec := range []string{`{}`, `{"a":"\u003cb\u003e \u0026"}`, `[1,2,3]`, `"x"`, `{"crc":{"crc":1}}`} {
		blob, err := json.Marshal(struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}{crc32.Checksum([]byte(rec), castagnoli), json.RawMessage(rec)})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(Frame(nil, []byte(rec))); got != string(blob)+"\n" {
			t.Fatalf("Frame(%s) = %q, want %q", rec, got, blob)
		}
	}
}

func writeLog(t *testing.T, recs ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(json.RawMessage(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func collect(t *testing.T, path string, policy Policy) ([]string, int, error) {
	t.Helper()
	var got []string
	dropped, err := Replay(path, policy, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	return got, dropped, err
}

// TestReplayPolicies walks the repair rule: a damaged final line is a
// torn tail under both policies; an interior one is refused with its line
// number or skipped and counted.
func TestReplayPolicies(t *testing.T) {
	path := writeLog(t, `{"n":1}`, `{"n":2}`, `{"n":3}`)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, dropped, err := collect(t, path, Refuse); err != nil || dropped != 0 || strings.Join(got, ",") != `{"n":1},{"n":2},{"n":3}` {
		t.Fatalf("clean replay = %v, %d, %v", got, dropped, err)
	}

	torn := raw[:len(raw)-4]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{Refuse, Skip} {
		if got, dropped, err := collect(t, path, policy); err != nil || dropped != 1 || len(got) != 2 {
			t.Fatalf("torn tail (policy %d) = %v, %d, %v; want 2 records, 1 dropped", policy, got, dropped, err)
		}
	}

	flipped := []byte(strings.Replace(string(raw), `{"n":2}`, `{"n":4}`, 1))
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = collect(t, path, Refuse)
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.Line != 2 || !strings.Contains(ce.Reason, "crc mismatch") {
		t.Fatalf("interior damage under Refuse = %v, want *ErrCorrupt at line 2", err)
	}
	if got, dropped, err := collect(t, path, Skip); err != nil || dropped != 1 || strings.Join(got, ",") != `{"n":1},{"n":3}` {
		t.Fatalf("interior damage under Skip = %v, %d, %v", got, dropped, err)
	}
}

// TestReplayCallbackErrorsPassThrough: decode errors are the caller's
// and come back unchanged, never recast as damage.
func TestReplayCallbackErrorsPassThrough(t *testing.T) {
	path := writeLog(t, `{"n":1}`, `{"n":2}`)
	sentinel := errors.New("schema mismatch")
	for _, policy := range []Policy{Refuse, Skip} {
		_, err := Replay(path, policy, func([]byte) error { return sentinel })
		if err != sentinel {
			t.Fatalf("policy %d: callback error came back as %v", policy, err)
		}
	}
	if dropped, err := Replay(filepath.Join(t.TempDir(), "missing"), Refuse, nil); err != nil || dropped != 0 {
		t.Fatalf("missing file = %d, %v; want an empty log", dropped, err)
	}
}

// TestWriteFileReplaces checks the atomic rewrite leaves exactly the new
// content and no temp files behind.
func TestWriteFileReplaces(t *testing.T) {
	path := writeLog(t, `{"old":true}`)
	if err := WriteFile(path, Frame(nil, []byte(`{"new":true}`))); err != nil {
		t.Fatal(err)
	}
	if got, _, err := collect(t, path, Refuse); err != nil || len(got) != 1 || got[0] != `{"new":true}` {
		t.Fatalf("after WriteFile: %v, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want only the log", len(entries), err)
	}
}

// TestConcurrentAppends: appends from several goroutines (a fabric node's
// work loops share one journal) never interleave bytes within a frame.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(map[string]int{"w": w, "i": i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, dropped, err := collect(t, path, Refuse)
	if err != nil || dropped != 0 || len(got) != writers*each {
		t.Fatalf("replayed %d records, dropped %d (err %v); want %d intact", len(got), dropped, err, writers*each)
	}
}
