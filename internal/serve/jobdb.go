package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"steac/internal/durable"
)

// jobDB is the durable job database: one framed log (internal/durable)
// under the checkpoint root (JobDir/jobs.jsonl) holding the latest state
// of every job the daemon ever accepted, keyed by the content-addressed
// job id.  A daemon restart knows every job's kind, spec, tenant owner,
// and terminal result without touching per-job checkpoint internals, so
// jobs reattach to their tenants and finished results survive the
// process.
//
// Write model: every state transition appends one full record and fsyncs
// before the transition is acknowledged.  Load replays the file under the
// Refuse policy — last record per id wins, a torn tail is dropped and
// counted, interior damage is a typed *durable.ErrCorrupt rather than a
// silently lost or re-owned job — and compacts it back to one line per
// job, so the file stays proportional to the number of jobs rather than
// the number of transitions.
type jobDB struct {
	mu      sync.Mutex
	log     *durable.Log
	recs    map[string]jobRecord
	dropped int // torn-tail rows dropped on open
}

// jobRecord is one durable job row.  Spec is the verbatim submission
// payload, kept so a restarted operator (or a future auto-resume) can
// re-run the job without the client re-POSTing it.
type jobRecord struct {
	ID          string          `json:"id"`
	Tenant      string          `json:"tenant"`
	Kind        string          `json:"kind"`
	Fingerprint string          `json:"fingerprint"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	State       string          `json:"state"`
	ShardsDone  int             `json:"shards_done,omitempty"`
	ShardsTotal int             `json:"shards_total,omitempty"`
	UnitsDone   int             `json:"units_done,omitempty"`
	UnitsTotal  int             `json:"units_total,omitempty"`
	Submitted   int64           `json:"submitted_unix_ms"`
	Finished    int64           `json:"finished_unix_ms,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
}

const jobDBFile = "jobs.jsonl"

// openJobDB loads (and compacts) the database under dir, creating it on
// first use.  A nil receiver is valid everywhere — an in-memory-only
// daemon (no JobDir) simply has no durable jobs.
func openJobDB(dir string) (*jobDB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	path := filepath.Join(dir, jobDBFile)
	db := &jobDB{recs: map[string]jobRecord{}}
	load := func(blob []byte) error {
		var rec jobRecord
		if err := json.Unmarshal(blob, &rec); err != nil || rec.ID == "" {
			return fmt.Errorf("row without a job id (%v)", err)
		}
		db.recs[rec.ID] = rec
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	if bytes.HasPrefix(raw, []byte(`{"id":`)) {
		db.dropped, err = replayUnframed(path, raw, load)
	} else {
		db.dropped, err = durable.Replay(path, durable.Refuse, load)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	if db.log, err = durable.OpenLog(path); err != nil {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	if err := durable.Rewrite(db.log, db.all()); err != nil {
		db.log.Close()
		return nil, fmt.Errorf("serve: job db compact: %w", err)
	}
	return db, nil
}

// replayUnframed is the one-shot reader for the unframed jobs.jsonl of
// earlier releases (one bare jobRecord per line).  It applies the
// durable Refuse rule: a damaged final line is a torn tail, dropped and
// counted; damage before it is a *durable.ErrCorrupt.  The compaction in
// openJobDB then rewrites the file framed.
func replayUnframed(path string, raw []byte, load func([]byte) error) (dropped int, err error) {
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	for i, line := range lines {
		if err := load(line); err != nil {
			if i < len(lines)-1 {
				return dropped, &durable.ErrCorrupt{Path: path, Line: i + 1, Reason: err.Error()}
			}
			dropped++
		}
	}
	return dropped, nil
}

// put records a state transition: append one frame, fsync, remember.
func (db *jobDB) put(rec jobRecord) error {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.log.Append(rec); err != nil {
		return fmt.Errorf("serve: job db: %w", err)
	}
	db.recs[rec.ID] = rec
	return nil
}

// close releases the append handle; the index stays readable and further
// puts fail.
func (db *jobDB) close() error {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.log.Close()
}

// get returns the latest record for id.
func (db *jobDB) get(id string) (jobRecord, bool) {
	if db == nil {
		return jobRecord{}, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.recs[id]
	return rec, ok
}

// all snapshots every record, submission order.
func (db *jobDB) all() []jobRecord {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	out := make([]jobRecord, 0, len(db.recs))
	for _, rec := range db.recs {
		out = append(out, rec)
	}
	db.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Submitted != out[j].Submitted {
			return out[i].Submitted < out[j].Submitted
		}
		return out[i].ID < out[j].ID
	})
	return out
}
