package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"steac/internal/durable"
)

// Typed checkpoint errors.  Repairable damage (a torn or bit-flipped
// journal entry) never surfaces as an error — the shard is re-run — but
// structural problems that could hide wrong results fail loudly with one
// of these, so callers can distinguish "stale format" from "wrong
// campaign" from "unreadable".
var (
	// ErrSchemaVersion marks a checkpoint (manifest or journal entry)
	// written by an incompatible format version.  Resuming would require
	// guessing at semantics, so it is refused rather than repaired.
	ErrSchemaVersion = errors.New("campaign: checkpoint schema version mismatch")
	// ErrCheckpointMismatch marks a checkpoint whose manifest fingerprint
	// does not match the spec being run: the directory belongs to a
	// different campaign.
	ErrCheckpointMismatch = errors.New("campaign: checkpoint belongs to a different campaign")
	// ErrCheckpointCorrupt marks a manifest that cannot be parsed or
	// fails its own integrity checks.  The journal can self-heal entry by
	// entry; the manifest is the root of trust and cannot.
	ErrCheckpointCorrupt = errors.New("campaign: checkpoint manifest corrupt")
)

const (
	manifestName = "MANIFEST.json"
	journalName  = "journal.jsonl"
)

// manifest is the checkpoint root of trust, published once (atomically,
// via durable.WriteFile) when the checkpoint directory is created.
type manifest struct {
	Schema string `json:"schema"`
	Plan
}

// entry is the record of one journal frame: a completed shard's outcome
// vector, keyed by the shard's content address.  The durable frame's
// CRC-32C covers the whole entry; an entry that fails any check drops and
// the shard re-runs.
type entry struct {
	Schema string  `json:"schema"`
	Shard  int     `json:"shard"`
	Key    string  `json:"key"`
	Out    []int64 `json:"out"`
}

// entry is the journal record of one completed shard.
func (p Plan) entry(shard int, out []int64) entry {
	return entry{Schema: SchemaVersion, Shard: shard, Key: p.Key(shard), Out: out}
}

// scanJournal replays one journal file under the Skip policy and merges
// its valid entries into loaded, returning the count of dropped
// (repairable) entries.  Entries are judged one by one:
//
//   - a torn or damaged frame (CRC mismatch, truncation, garbage) → drop
//     and count as repaired (the shard just re-runs, cheap and always
//     safe);
//   - wrong schema version on an intact entry → loud ErrSchemaVersion (a
//     format change can silently re-interpret data; never guess);
//   - undecodable entry, wrong key, wrong length, shard index out of
//     range, duplicate shard within the file → drop and count.
//
// Across files a duplicate shard is the expected trace of a stolen and
// still-completed fabric shard: the first valid entry wins, silently.  The
// campaign outcome is deterministic, so both carry identical vectors.  A
// missing journal is an empty one.
func scanJournal(path string, plan Plan, loaded map[int][]int64) (int, error) {
	repaired := 0
	seen := map[int]bool{}
	dropped, err := durable.Replay(path, durable.Skip, func(rec []byte) error {
		var e entry
		err := json.Unmarshal(rec, &e)
		if err == nil && e.Schema != SchemaVersion {
			return fmt.Errorf("%w: journal entry for shard %d has %q, this binary speaks %q",
				ErrSchemaVersion, e.Shard, e.Schema, SchemaVersion)
		}
		lo, hi := plan.Bounds(e.Shard)
		if err != nil || e.Shard < 0 || e.Shard >= plan.Shards || seen[e.Shard] ||
			len(e.Out) != hi-lo || e.Key != plan.Key(e.Shard) {
			repaired++
			return nil
		}
		seen[e.Shard] = true
		if _, dup := loaded[e.Shard]; !dup {
			loaded[e.Shard] = e.Out
		}
		return nil
	})
	return repaired + dropped, err
}

// scanJournals merges every journal of a checkpoint directory — the
// primary journal.jsonl plus any per-writer side journals left by
// distributed fabric nodes, which it also lists — under scanJournal's
// per-entry validation.
func scanJournals(dir string, plan Plan) (loaded map[int][]int64, repaired int, sides []string, err error) {
	sides, err = filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("campaign: list journals: %w", err)
	}
	sort.Strings(sides) // deterministic scans
	loaded = map[int][]int64{}
	for _, path := range append([]string{filepath.Join(dir, journalName)}, sides...) {
		n, err := scanJournal(path, plan, loaded)
		if err != nil {
			return nil, 0, nil, err
		}
		repaired += n
	}
	return loaded, repaired, sides, nil
}

// readManifest reads, decodes and validates the manifest of dir and
// returns its Plan.  With
// want set the manifest must also belong to want's campaign
// (ErrCheckpointMismatch).  A missing manifest is an error wrapping
// os.ErrNotExist.
func readManifest(dir string, want *Plan) (Plan, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("campaign: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return Plan{}, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	if man.Schema != SchemaVersion {
		return Plan{}, fmt.Errorf("%w: checkpoint has %q, this binary speaks %q",
			ErrSchemaVersion, man.Schema, SchemaVersion)
	}
	if man.Fingerprint == "" || man.Units <= 0 || man.ShardSize <= 0 ||
		man.Shards != shardCount(man.Units, man.ShardSize) {
		return Plan{}, fmt.Errorf("%w: %s: inconsistent geometry", ErrCheckpointCorrupt, path)
	}
	switch {
	case want == nil:
	case man.Fingerprint != want.Fingerprint:
		return Plan{}, fmt.Errorf("%w: checkpoint %.12s.. vs campaign %.12s..",
			ErrCheckpointMismatch, man.Fingerprint, want.Fingerprint)
	case man.Units != want.Units:
		// Same fingerprint implies the same spec, which implies the
		// same unit count; a divergence means the manifest is damaged.
		return Plan{}, fmt.Errorf("%w: %s: units %d vs campaign %d",
			ErrCheckpointCorrupt, path, man.Units, want.Units)
	}
	return man.Plan, nil
}

// checkpoint is an open checkpoint directory: the primary journal's
// append handle (whose manifest is authoritative), the shards already
// completed by earlier runs, and the count of damaged entries dropped.
type checkpoint struct {
	*Store
	loaded   map[int][]int64 // shard index -> outcome vector
	repaired int
}

// openCheckpoint opens dir as a checkpoint for plan's campaign, creating
// it if absent (CreateStore's loud-error taxonomy applies).  The
// journals are then loaded via scanJournals and, when anything was
// dropped or side journals exist, compacted into the primary journal, so
// damage does not accumulate across resumes.
func openCheckpoint(dir string, plan Plan) (*checkpoint, error) {
	plan, err := CreateStore(dir, plan)
	if err != nil {
		return nil, err
	}
	loaded, repaired, sides, err := scanJournals(dir, plan)
	if err != nil {
		return nil, err
	}
	st, err := openStore(plan, filepath.Join(dir, journalName))
	if err != nil {
		return nil, err
	}
	// A single-process resume owns the directory exclusively, so it may
	// fold a multi-writer (fabric) run's side journals into the primary
	// and delete them.  Live fabric directories are only read via
	// LoadOutcomes, which never compacts.
	if repaired > 0 || len(sides) > 0 {
		var entries []entry
		for shard := 0; shard < plan.Shards; shard++ {
			if out, ok := loaded[shard]; ok {
				entries = append(entries, plan.entry(shard, out))
			}
		}
		if err := durable.Rewrite(st.log, entries); err != nil {
			st.Close()
			return nil, fmt.Errorf("campaign: compact journal: %w", err)
		}
		// The primary journal now holds every surviving entry.  A crash
		// part-way through the removals just leaves benign cross-file
		// duplicates for the next scan.
		for _, side := range sides {
			if err := os.Remove(side); err != nil {
				st.Close()
				return nil, fmt.Errorf("campaign: compact journal: %w", err)
			}
		}
	}
	return &checkpoint{Store: st, loaded: loaded, repaired: repaired}, nil
}

// CheckpointInfo is the durable state of a checkpoint directory, as
// reported by Inspect.
type CheckpointInfo struct {
	Kind        string          `json:"kind"`
	Fingerprint string          `json:"fingerprint"`
	Spec        json.RawMessage `json:"spec"`
	Units       int             `json:"units"`
	ShardSize   int             `json:"shard_size"`
	Shards      int             `json:"shards"`
	// ShardsDone counts valid journaled shards; Repaired counts damaged
	// entries that a resume would drop and re-run.
	ShardsDone int `json:"shards_done"`
	Repaired   int `json:"repaired"`
}

// Inspect reads a checkpoint directory without running anything: it is
// LoadOutcomes reduced to counts, with the same loud-error taxonomy
// (ErrSchemaVersion / ErrCheckpointCorrupt), and never modifies the
// directory.
func Inspect(dir string) (*CheckpointInfo, error) {
	plan, loaded, repaired, err := LoadOutcomes(dir)
	if err != nil {
		return nil, err
	}
	return &CheckpointInfo{
		Kind: plan.Kind, Fingerprint: plan.Fingerprint, Spec: plan.Spec,
		Units: plan.Units, ShardSize: plan.ShardSize, Shards: plan.Shards,
		ShardsDone: len(loaded), Repaired: repaired,
	}, nil
}
