package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steac/internal/durable"
)

// completedCheckpoint runs the standard spec to completion into a fresh
// checkpoint directory and returns the directory and the golden report.
func completedCheckpoint(t *testing.T) (string, []byte) {
	t.Helper()
	spec := testSpec()
	dir := t.TempDir()
	res, err := Run(context.Background(), spec, Options{ShardSize: 64, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return dir, reportJSON(t, res)
}

// resume re-runs the standard spec against dir and returns the report and
// the Result (for repair/resume accounting), failing the test on error.
func resume(t *testing.T, dir string) (*Result, []byte) {
	t.Helper()
	res, err := Run(context.Background(), testSpec(), Options{ShardSize: 64, Dir: dir})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return res, reportJSON(t, res)
}

// TestJournalCorruptionProperty is the integrity property test: under
// random single-bit flips, truncations, and garbage appends to the
// journal, a resume must either repair (drop the damaged entries, re-run
// those shards, report byte-identical to golden) or fail loudly with a
// typed error — it must never return a different report.  Twenty trials
// per corruption family, seeded for reproducibility.
func TestJournalCorruptionProperty(t *testing.T) {
	dir, golden := completedCheckpoint(t)
	pristine, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	manifestRaw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		mut  func(rng *rand.Rand, raw []byte) []byte
	}{
		{"bitflip", func(rng *rand.Rand, raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8))
			return out
		}},
		{"truncate", func(rng *rand.Rand, raw []byte) []byte {
			return append([]byte(nil), raw[:rng.Intn(len(raw))]...)
		}},
		{"partial-append", func(rng *rand.Rand, raw []byte) []byte {
			// A torn write: the prefix of a valid-looking entry with no
			// terminating newline, as a crash mid-append leaves behind.
			torn := `{"schema":"` + SchemaVersion + `","shard":2,"key":"dead`
			return append(append([]byte(nil), raw...), torn[:1+rng.Intn(len(torn)-1)]...)
		}},
		{"shuffle-lines", func(rng *rand.Rand, raw []byte) []byte {
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			return append(bytes.Join(lines, []byte("\n")), '\n')
		}},
		{"duplicate-lines", func(rng *rand.Rand, raw []byte) []byte {
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			dup := lines[rng.Intn(len(lines))]
			return append(append(append([]byte(nil), raw...), dup...), '\n')
		}},
	}

	for _, c := range corruptions {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 20; trial++ {
				fresh := t.TempDir()
				if err := os.WriteFile(filepath.Join(fresh, manifestName), manifestRaw, 0o644); err != nil {
					t.Fatal(err)
				}
				mutated := c.mut(rng, pristine)
				if err := os.WriteFile(filepath.Join(fresh, journalName), mutated, 0o644); err != nil {
					t.Fatal(err)
				}

				res, err := Run(context.Background(), testSpec(), Options{ShardSize: 64, Dir: fresh})
				if err != nil {
					// The only loud outcome a journal mutation may
					// produce is a schema-version refusal (a bit flip
					// landing inside the version string is
					// indistinguishable from a stale format).
					if errors.Is(err, ErrSchemaVersion) {
						continue
					}
					t.Fatalf("trial %d: resume failed with untyped error: %v", trial, err)
				}
				if got := reportJSON(t, res); !bytes.Equal(got, golden) {
					t.Fatalf("trial %d: corrupted journal produced a DIFFERENT report:\n got  %s\n want %s",
						trial, got, golden)
				}
			}
		})
	}
}

// TestJournalRepairIsCounted checks the repair accounting and compaction:
// a damaged entry shows up in Result.Repaired, and the journal is
// compacted so the damage does not survive into the next resume.
func TestJournalRepairIsCounted(t *testing.T) {
	dir, golden := completedCheckpoint(t)
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitN(raw, []byte("\n"), 2)
	damaged := append([]byte("{\"schema\":\""+SchemaVersion+"\",garbage\n"), lines[1]...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	res, got := resume(t, dir)
	if res.Repaired == 0 {
		t.Fatal("damaged entry was not counted as repaired")
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("repaired run changed the report")
	}

	res2, _ := resume(t, dir)
	if res2.Repaired != 0 {
		t.Fatalf("journal was not compacted: second resume repaired %d", res2.Repaired)
	}
	if res2.Resumed != res2.Shards {
		t.Fatalf("second resume re-simulated shards: %d/%d resumed", res2.Resumed, res2.Shards)
	}
}

// TestJournalStaleEntrySchema checks the loud path: an otherwise valid
// entry carrying a foreign schema version must refuse with
// ErrSchemaVersion, never guess.
func TestJournalStaleEntrySchema(t *testing.T) {
	dir, _ := completedCheckpoint(t)
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Edit the first entry's schema and re-frame the line, so it still
	// passes the frame checksum and is an otherwise valid entry.
	first, rest, _ := bytes.Cut(raw, []byte("\n"))
	var frame struct {
		Rec json.RawMessage `json:"rec"`
	}
	if err := json.Unmarshal(first, &frame); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Replace(frame.Rec, []byte(SchemaVersion), []byte("steac-campaign/v0"), 1)
	stale := append(durable.Frame(nil, rec), rest...)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), testSpec(), Options{ShardSize: 64, Dir: dir})
	if !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("stale entry schema: got %v, want ErrSchemaVersion", err)
	}
	if _, err := Inspect(dir); !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("Inspect on stale entry schema: got %v, want ErrSchemaVersion", err)
	}
}

// TestManifestStaleSchema checks that a checkpoint written by a different
// format version refuses loudly on both the run and inspect paths.
func TestManifestStaleSchema(t *testing.T) {
	dir, _ := completedCheckpoint(t)
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Replace(raw, []byte(SchemaVersion), []byte("steac-campaign/v999"), 1)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), testSpec(), Options{ShardSize: 64, Dir: dir})
	if !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("stale manifest schema: got %v, want ErrSchemaVersion", err)
	}
	if _, err := Inspect(dir); !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("Inspect on stale manifest: got %v, want ErrSchemaVersion", err)
	}
}

// TestManifestCorrupt checks that an unparseable or internally
// inconsistent manifest refuses with ErrCheckpointCorrupt.
func TestManifestCorrupt(t *testing.T) {
	for name, content := range map[string]string{
		"garbage":  "not json at all{{{",
		"geometry": fmt.Sprintf(`{"schema":%q,"kind":"memfault","fingerprint":"ab","units":100,"shard_size":10,"shards":3}`, SchemaVersion),
	} {
		name, content := name, content
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Run(context.Background(), testSpec(), Options{ShardSize: 64, Dir: dir})
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("corrupt manifest: got %v, want ErrCheckpointCorrupt", err)
			}
			if _, err := Inspect(dir); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("Inspect on corrupt manifest: got %v, want ErrCheckpointCorrupt", err)
			}
		})
	}
}

// TestCheckpointMismatch checks that pointing a different campaign at an
// existing checkpoint directory refuses with ErrCheckpointMismatch rather
// than mixing results.
func TestCheckpointMismatch(t *testing.T) {
	dir, _ := completedCheckpoint(t)
	other := testSpec()
	other.Config.Words = 32
	_, err := Run(context.Background(), other, Options{ShardSize: 64, Dir: dir})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint: got %v, want ErrCheckpointMismatch", err)
	}
}

// TestInspect checks the read-only checkpoint report on a partial run.
func TestInspect(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	_, err := Run(ctx, spec, Options{ShardSize: 64, Dir: dir, OnShard: func(ev ShardEvent) {
		if ev.Done >= 2 {
			cancel(errors.New("cut"))
		}
	}})
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Kind != KindMemfault {
		t.Fatalf("Inspect kind = %q, want %q", info.Kind, KindMemfault)
	}
	want, _ := Fingerprint(spec)
	if info.Fingerprint != want {
		t.Fatal("Inspect fingerprint does not match the spec")
	}
	if info.ShardsDone < 2 || info.ShardsDone >= info.Shards {
		t.Fatalf("Inspect shards done = %d of %d, want partial >= 2", info.ShardsDone, info.Shards)
	}
	if info.ShardSize != 64 {
		t.Fatalf("Inspect shard size = %d, want 64", info.ShardSize)
	}
	if !strings.Contains(string(info.Spec), `"algorithm"`) {
		t.Fatal("Inspect spec payload missing")
	}
}

// TestDecodeUnknownKind pins the registry's failure mode for manifests
// written by a newer binary with kinds this one does not know.
func TestDecodeUnknownKind(t *testing.T) {
	if _, err := Decode("no-such-kind", json.RawMessage(`{}`)); err == nil {
		t.Fatal("Decode accepted an unknown kind")
	}
	kinds := Kinds()
	var haveMem, haveX bool
	for _, k := range kinds {
		haveMem = haveMem || k == KindMemfault
		haveX = haveX || k == KindXCheck
	}
	if !haveMem || !haveX {
		t.Fatalf("registered kinds = %v, want both %q and %q", kinds, KindMemfault, KindXCheck)
	}
}

// TestJournalLegacyFormatResumes pins the upgrade path from the journal
// format of earlier releases (bare entries with an inner crc field,
// testdata/legacy-checkpoint, written by that code for testSpec at shard
// size 64).  Its manifest is unchanged and still accepted; its entries
// are not frames, so every one replays as damage, every shard re-runs,
// and the report is the golden one.  The compaction leaves a journal the
// next resume takes whole.
func TestJournalLegacyFormatResumes(t *testing.T) {
	dir := t.TempDir()
	var entries int
	for _, name := range []string{manifestName, journalName} {
		raw, err := os.ReadFile(filepath.Join("testdata", "legacy-checkpoint", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == journalName {
			entries = bytes.Count(raw, []byte("\n"))
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := goldenRun(t, testSpec())
	res, got := resume(t, dir)
	if !bytes.Equal(got, golden) {
		t.Fatalf("legacy-format journal resumed to a different report:\n got  %s\n want %s", got, golden)
	}
	if res.Resumed != 0 || res.Repaired != entries || entries != res.Shards {
		t.Fatalf("resumed %d, repaired %d of %d legacy entries (%d shards); want 0 resumed, all repaired",
			res.Resumed, res.Repaired, entries, res.Shards)
	}
	res2, _ := resume(t, dir)
	if res2.Repaired != 0 || res2.Resumed != res2.Shards {
		t.Fatalf("second resume: %d repaired, %d/%d resumed", res2.Repaired, res2.Resumed, res2.Shards)
	}

	// A fresh checkpoint publishes the legacy manifest byte for byte.
	fresh, _ := completedCheckpoint(t)
	mine, err := os.ReadFile(filepath.Join(fresh, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-checkpoint", manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine, legacy) {
		t.Fatalf("manifest format changed:\n%s\nwant\n%s", mine, legacy)
	}
}
