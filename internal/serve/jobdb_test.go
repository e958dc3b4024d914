package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steac/internal/durable"
	"steac/internal/obs"
)

// isCorrupt reports whether err is the typed refusal of a damaged job
// database.
func isCorrupt(err error) bool {
	var ce *durable.ErrCorrupt
	return errors.As(err, &ce)
}

// TestJobDBDurabilityProperty is the job-database mirror of the catalog's
// durability battery: random interleavings of job submissions, state
// transitions, clean reopens, torn-tail truncations, bit flips anywhere,
// and bit flips inside a tenant name that leave the line valid JSON.  The
// invariant is "never silent loss, never a silent owner change": after any
// corrupt reopen, either
//
//   - the open fails with a typed *durable.ErrCorrupt, or
//   - it succeeds and every surviving row is byte-identical to a row
//     whose put was acknowledged, every job is at its latest acknowledged
//     row except at most one (the torn tail), and that loss shows up in
//     the dropped count.
func TestJobDBDurabilityProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			path := filepath.Join(dir, jobDBFile)
			db, err := openJobDB(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.close() }()

			// acked maps job id -> every row acknowledged for it, in put
			// order; the last one is the job's current state.
			acked := map[string][][]byte{}
			var ids []string

			checkSurvivors := func(db *jobDB, allowTail bool) {
				t.Helper()
				survivors := map[string][]byte{}
				for _, rec := range db.all() {
					blob, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					known := false
					for _, v := range acked[rec.ID] {
						known = known || bytes.Equal(v, blob)
					}
					if !known {
						t.Fatalf("job row %s was never acknowledged (mutated or invented):\n%s", rec.ID, blob)
					}
					survivors[rec.ID] = blob
				}
				var stale []string
				for _, id := range ids {
					versions := acked[id]
					if !bytes.Equal(survivors[id], versions[len(versions)-1]) {
						stale = append(stale, id)
					}
				}
				switch {
				case len(stale) == 0:
				case len(stale) == 1 && allowTail:
					if db.dropped == 0 {
						t.Fatalf("job %s lost its latest row with dropped=0 — silent loss", stale[0])
					}
					// Reconcile: the torn row is gone for good.
					id := stale[0]
					got, ok := survivors[id]
					if !ok {
						delete(acked, id)
						kept := ids[:0]
						for _, other := range ids {
							if other != id {
								kept = append(kept, other)
							}
						}
						ids = kept
						break
					}
					versions := acked[id]
					for i, v := range versions {
						if bytes.Equal(v, got) {
							acked[id] = versions[:i+1]
						}
					}
				default:
					t.Fatalf("%d jobs lost their latest row (allowTail=%v) — silent loss: %v", len(stale), allowTail, stale)
				}
			}

			put := func(rec jobRecord) {
				t.Helper()
				if err := db.put(rec); err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				acked[rec.ID] = append(acked[rec.ID], blob)
			}

			for op := 0; op < 60; op++ {
				switch k := rng.Intn(10); {
				case k < 3 || len(ids) == 0: // submit a new job
					id := fmt.Sprintf("%016x", rng.Uint64())
					ids = append(ids, id)
					put(jobRecord{
						ID: id, Tenant: []string{"acme", "bolt", "anon"}[rng.Intn(3)],
						Kind: "memfault", Fingerprint: id + "0123456789abcdef",
						Spec:      json.RawMessage(fmt.Sprintf(`{"words":%d}`, 16<<rng.Intn(4))),
						State:     jobQueued,
						Submitted: 1700000000000 + int64(op),
					})

				case k < 5: // a state transition of an existing job
					id := ids[rng.Intn(len(ids))]
					var rec jobRecord
					versions := acked[id]
					if err := json.Unmarshal(versions[len(versions)-1], &rec); err != nil {
						t.Fatal(err)
					}
					rec.State = []string{jobRunning, jobDone, jobFailed}[rng.Intn(3)]
					rec.ShardsDone, rec.ShardsTotal = op, 60
					if rec.State == jobDone {
						rec.Result = json.RawMessage(fmt.Sprintf(`{"coverage":%d}`, rng.Intn(100)))
					}
					put(rec)

				case k < 7: // clean reopen
					if err := db.close(); err != nil {
						t.Fatal(err)
					}
					if db, err = openJobDB(dir); err != nil {
						t.Fatal(err)
					}
					checkSurvivors(db, false)

				default: // corrupt, then reopen
					if err := db.close(); err != nil {
						t.Fatal(err)
					}
					raw, err := os.ReadFile(path)
					if err != nil || len(raw) == 0 {
						if db, err = openJobDB(dir); err != nil {
							t.Fatal(err)
						}
						continue
					}
					backup := append([]byte(nil), raw...)
					damaged := append([]byte(nil), raw...)
					tornTail := false
					switch rng.Intn(3) {
					case 0:
						// Torn tail: truncate inside the final line, keeping
						// at least one byte of it.
						lineStart := len(damaged) - 1
						for lineStart > 0 && damaged[lineStart-1] != '\n' {
							lineStart--
						}
						damaged = damaged[:len(damaged)-1-rng.Intn(len(damaged)-lineStart-1)]
						tornTail = true
					case 1:
						pos := rng.Intn(len(damaged))
						damaged[pos] ^= byte(1 << rng.Intn(8))
					default:
						// Flip a tenant name's case: the line still parses,
						// and without a checksum the job changes owner.
						key := []byte(`"tenant":"`)
						var at []int
						for i := 0; ; {
							j := bytes.Index(damaged[i:], key)
							if j < 0 {
								break
							}
							at = append(at, i+j+len(key))
							i += j + len(key)
						}
						damaged[at[rng.Intn(len(at))]] ^= 0x20
					}
					if err := os.WriteFile(path, damaged, 0o644); err != nil {
						t.Fatal(err)
					}
					db, err = openJobDB(dir)
					if err != nil {
						if !isCorrupt(err) {
							t.Fatalf("corrupt open failed untyped: %v", err)
						}
						if tornTail {
							t.Fatalf("pure tail damage must repair, got %v", err)
						}
						// Loud refusal: restore the pre-damage file (the
						// operator's restore-from-backup) and carry on.
						if err := os.WriteFile(path, backup, 0o644); err != nil {
							t.Fatal(err)
						}
						if db, err = openJobDB(dir); err != nil {
							t.Fatal(err)
						}
						checkSurvivors(db, false)
						continue
					}
					checkSurvivors(db, true)
				}
			}
		})
	}
}

// TestJobDBLoadsUnframedFile pins compatibility with the unframed
// jobs.jsonl of earlier releases (testdata/jobs_legacy.jsonl, written by
// that code with state-transition history): it loads through the one-shot
// reader with every job, owner and latest state intact, and the
// compaction on open rewrites it framed.
func TestJobDBLoadsUnframedFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "jobs_legacy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "jobs_legacy_all.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, jobDBFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // the unframed file, then its framed rewrite
		db, err := openJobDB(dir)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		got, err := json.MarshalIndent(db.all(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(append(got, '\n')) != string(want) {
			t.Fatalf("pass %d: jobs differ from the original database:\n%s\nwant\n%s", pass, got, want)
		}
		if db.dropped != 0 {
			t.Fatalf("pass %d: dropped %d rows of an undamaged file", pass, db.dropped)
		}
		db.close()
	}
	framed := 0
	if _, err := durable.Replay(filepath.Join(dir, jobDBFile), durable.Refuse, func([]byte) error {
		framed++
		return nil
	}); err != nil || framed != 3 {
		t.Fatalf("rewritten file: %d framed rows (err %v), want 3", framed, err)
	}
}

// TestJobDBUnframedDamage applies the Refuse rule to the unframed reader:
// a torn final row is dropped and counted, interior damage is typed.
func TestJobDBUnframedDamage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "jobs_legacy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		damaged []byte
		corrupt bool
	}{
		{"torn-tail", raw[:len(raw)-9], false},
		{"interior", bytes.Replace(raw, []byte(`"tenant":"acme"`), []byte(`"tenant":"acme`), 1), true},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, jobDBFile), c.damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := openJobDB(dir)
		if c.corrupt {
			var ce *durable.ErrCorrupt
			if !errors.As(err, &ce) || ce.Line != 2 {
				t.Fatalf("%s: got %v, want a *durable.ErrCorrupt at line 2", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if db.dropped != 1 || len(db.all()) != 3 {
			t.Fatalf("%s: dropped %d, %d jobs; want 1 dropped row and 3 jobs", c.name, db.dropped, len(db.all()))
		}
		db.close()
	}
}

// TestJobSubmitCorruptJobDBIsInternal: a daemon whose job database is
// damaged in the middle refuses job submissions with the daemon's fault
// (500, code "internal") naming the job database — not a client error.
func TestJobSubmitCorruptJobDBIsInternal(t *testing.T) {
	dir := t.TempDir()
	db, err := openJobDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("%016x", i)
		if err := db.put(jobRecord{ID: id, Tenant: AnonTenant, Kind: "memfault", State: jobDone}); err != nil {
			t.Fatal(err)
		}
	}
	db.close()
	path := filepath.Join(dir, jobDBFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, JobDir: dir})
	resp, blob := post(t, ts.URL+"/v1/jobs", jobBody(32))
	var env wireError
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("bad error envelope %s: %v", blob, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Code != codeInternal ||
		!strings.Contains(env.Error, "job database") {
		t.Fatalf("submit over a corrupt job db = %d %s, want 500 internal naming the job database", resp.StatusCode, blob)
	}
}

// TestJobDBPutFailuresCounted: Drain closes the job database, and a state
// transition written after that fails loudly on /metrics instead of
// vanishing.
func TestJobDBPutFailuresCounted(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, JobDir: t.TempDir()})
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := obs.CounterValue("serve.jobdb_put_failures")
	srv.jobMgr.persist(jobRecord{ID: "feedfacefeedface", State: jobDone})
	if got := obs.CounterValue("serve.jobdb_put_failures") - before; got != 1 {
		t.Fatalf("jobdb_put_failures grew by %d, want 1", got)
	}
}
