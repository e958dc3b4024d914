package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"steac/internal/durable"
)

// The multi-writer checkpoint store: the exported slice of the checkpoint
// format that the distributed fabric (internal/fabric) builds on.  A
// coordinator publishes the manifest once with CreateStore; every node then
// opens the same directory with its own writer name and appends completed
// shards to a private journal file (journal-<writer>.jsonl), so concurrent
// writers never interleave bytes within one file.  Readers — the
// coordinator's merge, Inspect, and a plain single-process Run resuming the
// directory — scan the primary journal plus every side journal and merge
// them shard by shard under the same validation rules as always: a shard
// entry counts if and only if its key and CRC match what the manifest's
// campaign demands.  The same deterministic outcome recorded twice (two
// nodes both completed a stolen shard) is benign; the first valid entry
// wins and the duplicate is ignored.
//
// Single-process Run compacts multi-writer directories on resume (side
// journals fold into the primary and are removed).  Live fabric
// directories are never compacted: compaction would unlink journal files
// other processes hold open for append.

// Plan is the shard geometry of one campaign: everything a scheduler —
// local or distributed — needs to deal out and validate work without
// holding a prepared Executor.  A Plan round-trips through the checkpoint
// manifest, so two processes that agree on a fingerprint agree on every
// shard key.
type Plan struct {
	// Kind and Spec identify the campaign in registry terms (the
	// manifest's own fields).
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
	// Fingerprint is the campaign content address (hex SHA-256).
	Fingerprint string `json:"fingerprint"`
	// Units, ShardSize and Shards fix the shard geometry.
	Units     int `json:"units"`
	ShardSize int `json:"shard_size"`
	Shards    int `json:"shards"`
}

// Bounds returns the unit range [lo, hi) of shard index.
func (p Plan) Bounds(index int) (lo, hi int) {
	return shardBounds(p.Units, p.ShardSize, index)
}

// Key returns the content address of shard index — the value a journal
// entry must carry to count for this campaign.
func (p Plan) Key(index int) string {
	lo, hi := p.Bounds(index)
	return shardKey(p.Fingerprint, index, lo, hi)
}

// PlanCampaign prepares a spec and fixes its shard geometry: the requested
// shard size (0 = DefaultShardSize) is aligned to the executor's batch
// width exactly as Run would align it.  The returned Executor is the
// prepared campaign; callers that only need the geometry may drop it.
func PlanCampaign(ctx context.Context, spec Spec, shardSize int) (Plan, Executor, error) {
	payload, err := spec.Marshal()
	if err != nil {
		return Plan{}, nil, fmt.Errorf("campaign: marshal %s spec: %w", spec.Kind(), err)
	}
	fingerprint, err := Fingerprint(spec)
	if err != nil {
		return Plan{}, nil, err
	}
	exec, err := spec.Prepare(ctx)
	if err != nil {
		return Plan{}, nil, fmt.Errorf("campaign: prepare %s: %w", spec.Kind(), err)
	}
	size := Options{ShardSize: shardSize}.shardSize()
	size = alignShardSize(exec, size)
	units := exec.Units()
	plan := Plan{
		Kind: spec.Kind(), Spec: payload, Fingerprint: fingerprint,
		Units: units, ShardSize: size, Shards: shardCount(units, size),
	}
	return plan, exec, nil
}

// validWriter reports whether name is usable as a journal writer id: it is
// embedded in the side-journal filename, so it must be a plain single-path
// component.
func validWriter(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return name != "." && name != ".."
}

// CreateStore publishes the checkpoint manifest for plan under dir,
// creating the directory as needed.  It is idempotent: an existing
// manifest is validated exactly like resume (ErrSchemaVersion /
// ErrCheckpointCorrupt / ErrCheckpointMismatch), and its geometry wins —
// the returned Plan is the authoritative one every writer must use.
func CreateStore(dir string, plan Plan) (Plan, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Plan{}, fmt.Errorf("campaign: create checkpoint dir: %w", err)
	}
	have, err := readManifest(dir, &plan)
	if !errors.Is(err, os.ErrNotExist) {
		return have, err
	}
	raw, err := json.MarshalIndent(manifest{Schema: SchemaVersion, Plan: plan}, "", "  ")
	if err == nil {
		err = durable.WriteFile(filepath.Join(dir, manifestName), append(raw, '\n'))
	}
	if err != nil {
		return Plan{}, fmt.Errorf("campaign: publish manifest: %w", err)
	}
	return plan, nil
}

// Store is one writer's append handle on a checkpoint directory — the
// one journaling path shared by Run (on journal.jsonl) and fabric nodes
// (on journal-<writer>.jsonl).  Appends are fsync'd before Append
// returns, so an acknowledged shard survives any crash, and are safe for
// concurrent use (a fabric node's work loops share one Store).
type Store struct {
	plan Plan
	log  *durable.Log
}

// OpenStore opens an existing checkpoint directory for appending as
// writer.  The manifest must already exist (the coordinator publishes it
// with CreateStore) and must belong to plan's campaign; the manifest's
// shard geometry is authoritative and is reflected by Store.Plan.
func OpenStore(dir string, plan Plan, writer string) (*Store, error) {
	if !validWriter(writer) {
		return nil, fmt.Errorf("campaign: invalid journal writer name %q", writer)
	}
	plan, err := readManifest(dir, &plan)
	if err != nil {
		return nil, err
	}
	return openStore(plan, filepath.Join(dir, "journal-"+writer+".jsonl"))
}

func openStore(plan Plan, path string) (*Store, error) {
	log, err := durable.OpenLog(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	return &Store{plan: plan, log: log}, nil
}

// Plan returns the authoritative (manifest) geometry of the store.
func (s *Store) Plan() Plan { return s.plan }

// Append journals one completed shard as one durable frame.  The outcome
// vector length must match the shard's unit range.
func (s *Store) Append(shard int, out []int64) error {
	if shard < 0 || shard >= s.plan.Shards {
		return fmt.Errorf("campaign: journal shard %d: out of range [0,%d)", shard, s.plan.Shards)
	}
	if lo, hi := s.plan.Bounds(shard); len(out) != hi-lo {
		return fmt.Errorf("campaign: journal shard %d: %d outcomes, want %d", shard, len(out), hi-lo)
	}
	if err := s.log.Append(s.plan.entry(shard, out)); err != nil {
		return fmt.Errorf("campaign: journal shard %d: %w", shard, err)
	}
	return nil
}

// Close releases the journal handle.
func (s *Store) Close() error { return s.log.Close() }

// LoadOutcomes scans a checkpoint directory read-only: the validated
// manifest as a Plan, the merged valid shard outcomes from every journal
// (primary plus side journals), and the count of damaged entries a resume
// would drop.  Unlike Run it never compacts or otherwise modifies the
// directory, so it is safe to call while writers are live; a half-written
// trailing line simply does not count yet.
func LoadOutcomes(dir string) (Plan, map[int][]int64, int, error) {
	plan, err := readManifest(dir, nil)
	if err != nil {
		return Plan{}, nil, 0, err
	}
	loaded, repaired, _, err := scanJournals(dir, plan)
	if err != nil {
		return Plan{}, nil, 0, err
	}
	return plan, loaded, repaired, nil
}

// MissingShards lists the shard indices of plan that loaded does not
// cover, in order.
func MissingShards(plan Plan, loaded map[int][]int64) []int {
	var missing []int
	for i := 0; i < plan.Shards; i++ {
		if _, ok := loaded[i]; !ok {
			missing = append(missing, i)
		}
	}
	return missing
}

// AssembleReport builds the engine-native report from a complete outcome
// map through the executor's own Assemble path — the distributed merge is
// the same code a single-process run ends with, so fabric == local, byte
// for byte.  Every shard of the plan must be present.
func AssembleReport(exec Executor, plan Plan, loaded map[int][]int64) (interface{}, error) {
	if missing := MissingShards(plan, loaded); len(missing) > 0 {
		return nil, fmt.Errorf("campaign: assemble %s: %d of %d shards missing (first %d)",
			plan.Kind, len(missing), plan.Shards, missing[0])
	}
	outcomes := make([]int64, plan.Units)
	indices := make([]int, 0, len(loaded))
	for idx := range loaded {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	for _, idx := range indices {
		lo, hi := plan.Bounds(idx)
		if idx >= plan.Shards || len(loaded[idx]) != hi-lo {
			return nil, fmt.Errorf("campaign: assemble %s: shard %d outcome length %d, want %d",
				plan.Kind, idx, len(loaded[idx]), hi-lo)
		}
		copy(outcomes[lo:hi], loaded[idx])
	}
	report, err := exec.Assemble(outcomes)
	if err != nil {
		return nil, fmt.Errorf("campaign: assemble %s: %w", plan.Kind, err)
	}
	return report, nil
}
