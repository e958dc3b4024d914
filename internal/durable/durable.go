// Package durable is the one record format and the one set of durability
// mechanics behind every append-only file the platform keeps: the
// campaign journal, the results catalog and the daemon's job database.
//
// A file is a sequence of frames, one per line:
//
//	{"crc":<CRC-32C of rec>,"rec":<rec>}\n
//
// where rec is one compact JSON value.  The checksum covers exactly the
// rec bytes, so any bit flip inside a record is detected even when the
// result still parses.  Appends are fsynced before they return; a file is
// only ever replaced whole, through WriteFile's temp-file + fsync +
// rename + directory-fsync publish.
//
// Replay applies one repair rule to every store.  A damaged final line is
// the torn tail of a crash mid-append — the record was never
// acknowledged — so it is dropped and counted.  A damaged line before the
// tail cannot be a torn append; what happens to it is the caller's
// Policy: Refuse (a store that cannot recompute what it lost) or Skip (a
// store whose records can be recomputed).
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// Policy is what Replay does with a damaged line before the final one.
type Policy int

const (
	// Refuse stops the replay with an *ErrCorrupt.
	Refuse Policy = iota
	// Skip drops the line and counts it, like a torn tail.
	Skip
)

// ErrCorrupt reports interior damage under the Refuse policy: the line
// (1-based, as sed counts) that failed its frame or checksum.
type ErrCorrupt struct {
	Path   string
	Line   int
	Reason string
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("durable: %s: line %d: %s", e.Path, e.Line, e.Reason)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	framePrefix = `{"crc":`
	frameMid    = `,"rec":`
)

// Frame appends the framed line for rec to dst.  For rec produced by
// json.Marshal the output equals json.Marshal of a {crc,rec} struct plus
// a newline.
func Frame(dst, rec []byte) []byte {
	dst = append(dst, framePrefix...)
	dst = strconv.AppendUint(dst, uint64(crc32.Checksum(rec, castagnoli)), 10)
	dst = append(dst, frameMid...)
	dst = append(dst, rec...)
	return append(dst, '}', '\n')
}

// unframe checks one line (without its newline) and returns the record.
func unframe(line []byte) ([]byte, error) {
	rest, okPrefix := bytes.CutPrefix(line, []byte(framePrefix))
	digits, rest, okMid := bytes.Cut(rest, []byte(frameMid))
	rec, okSuffix := bytes.CutSuffix(rest, []byte("}"))
	if !okPrefix || !okMid || !okSuffix || len(rec) == 0 {
		return nil, errors.New("not a frame")
	}
	sum, err := strconv.ParseUint(string(digits), 10, 32)
	if err != nil {
		return nil, errors.New("bad checksum field")
	}
	if got := crc32.Checksum(rec, castagnoli); uint64(got) != sum {
		return nil, fmt.Errorf("crc mismatch (stored %08x, computed %08x)", sum, got)
	}
	return rec, nil
}

// Replay reads path read-only and calls fn with every intact record in
// file order.  A missing file is an empty one.  The damaged final line
// and, under Skip, damaged interior lines are dropped and counted; under
// Refuse interior damage is an *ErrCorrupt.  An error from fn stops the
// replay and is returned unchanged.  Replay never writes, so it is safe
// beside a live appender: a half-written last line just does not count
// yet.
func Replay(path string, policy Policy, fn func(rec []byte) error) (dropped int, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	raw = bytes.TrimRight(raw, "\n")
	for n := 1; len(raw) > 0; n++ {
		line, rest, more := bytes.Cut(raw, []byte("\n"))
		raw = rest
		rec, err := unframe(line)
		if err != nil {
			if more && policy == Refuse {
				return dropped, &ErrCorrupt{Path: path, Line: n, Reason: err.Error()}
			}
			dropped++
			continue
		}
		if err := fn(rec); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// Log is an append handle on a framed file.  Appends are safe for
// concurrent use: each frame is one O_APPEND write.  Rewrite is not, and
// needs the owner's exclusion.
type Log struct {
	path string
	f    *os.File
}

// OpenLog opens path for appending, creating it if absent.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &Log{path: path, f: f}, nil
}

// Append writes the JSON encoding of rec as one frame and fsyncs before
// returning, so an acknowledged record survives any later crash.
func (l *Log) Append(rec any) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if _, err := l.f.Write(Frame(make([]byte, 0, len(blob)+32), blob)); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	return nil
}

// Close releases the handle; later Appends fail and later Closes are
// no-ops.
func (l *Log) Close() error {
	if err := l.f.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

// Rewrite atomically replaces the whole log with one frame per record, in
// order (compaction), and reopens l on the new file.
func Rewrite[T any](l *Log, recs []T) error {
	var data []byte
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("durable: rewrite: %w", err)
		}
		data = Frame(data, blob)
	}
	if err := WriteFile(l.path, data); err != nil {
		return err
	}
	_ = l.Close() // its file was just replaced
	fresh, err := OpenLog(l.path)
	if err != nil {
		return err
	}
	l.f = fresh.f
	return nil
}

// WriteFile atomically replaces path with data: write a temp file in the
// same directory, fsync it, rename it over path, fsync the directory.  A
// crash leaves either the old file or the new one, never a mix.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	var d *os.File
	if err == nil {
		d, err = os.Open(dir)
	}
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	return nil
}
