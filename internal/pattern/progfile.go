package pattern

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Cycle-based ATE program files.  The paper: "The test patterns are cycle
// based, which can be applied by external ATE easily."  WriteProgramFile
// streams the translated program as a plain-text tester file — one vector
// line per cycle with drive states (0/1/X) and expected states (L/H/X) —
// and ReadProgramFile loads such a file for replay on the tester model
// (ate.RunRecorded), so the hand-off to a real ATE is a file, exactly as in
// the paper's flow.
//
// Format:
//
//	STEACPROG tam=<w> func=<n> sessions=<k>
//	SESSION <i> cycles=<c>
//	V <tam-drive> <tam-expect> <func-drive> <func-expect> <actions>
//
// Buses render as character vectors ("-" when the bus is empty); actions
// list the per-core scan controls as core:S (shift) or core:C (capture),
// "-" when no core is scanning.

const progMagic = "STEACPROG"

// WriteProgramFile streams the whole program to w.
func WriteProgramFile(w io.Writer, prog *Program) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "%s tam=%d func=%d sessions=%d\n",
		progMagic, prog.TamWidth, prog.FuncBus, len(prog.Sessions))
	for _, layout := range prog.Sessions {
		fmt.Fprintf(bw, "SESSION %d cycles=%d\n", layout.Index, layout.Cycles)
		// Actions print in core-name order.
		names := layout.LaneNames()
		order := make([]int, len(names))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
		var line []byte
		err := prog.Stream(layout, func(c int, cyc *Cycle) bool {
			line = append(line[:0], "V "...)
			line = appendBits(line, &cyc.TamIn, "01X")
			line = append(line, ' ')
			line = appendBits(line, &cyc.TamExpect, "LHX")
			line = append(line, ' ')
			line = appendBits(line, &cyc.Func, "01X")
			line = append(line, ' ')
			line = appendBits(line, &cyc.FuncExpect, "LHX")
			line = append(line, ' ')
			line = appendActions(line, cyc.Actions, names, order)
			line = append(line, '\n')
			bw.Write(line)
			return true
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendBits renders a bus a word at a time: alphabet[0] for 0,
// alphabet[1] for 1, alphabet[2] for X; "-" for an empty bus.
func appendBits(line []byte, bus *Bus, alphabet string) []byte {
	if bus.Len() == 0 {
		return append(line, '-')
	}
	for w, care := range bus.Care {
		val, n := bus.Val[w], min(64, bus.Len()-w<<6)
		for k := 0; k < n; k++ {
			idx := 2
			if care>>k&1 == 1 {
				idx = int(val >> k & 1)
			}
			line = append(line, alphabet[idx])
		}
	}
	return line
}

func appendActions(line []byte, actions []CoreAction, names []string, order []int) []byte {
	n := 0
	for _, i := range order {
		if actions[i] == ActIdle {
			continue
		}
		if n > 0 {
			line = append(line, ',')
		}
		n++
		line = append(line, names[i]...)
		if actions[i] == ActCapture {
			line = append(line, ":C"...)
		} else {
			line = append(line, ":S"...)
		}
	}
	if n == 0 {
		line = append(line, '-')
	}
	return line
}

// RecordedCycle is one parsed vector line.  Its Actions are indexed like
// the session's RecordedSession.Lanes and may be shorter than Lanes: lanes
// first named after this line are idle in it.
type RecordedCycle struct {
	Cycle
}

// RecordedSession is one parsed session.  A tester file names scan lanes
// by core, so Lanes lists the cores the session's action fields name, in
// order of first appearance.
type RecordedSession struct {
	Index  int
	Lanes  []string
	Cycles []RecordedCycle
}

// RecordedProgram is a parsed ATE program file.
type RecordedProgram struct {
	TamWidth int
	FuncBus  int
	Sessions []RecordedSession
}

// TotalCycles sums the recorded session lengths.
func (p *RecordedProgram) TotalCycles() int {
	n := 0
	for _, s := range p.Sessions {
		n += len(s.Cycles)
	}
	return n
}

// ReadProgramFile parses a tester file written by WriteProgramFile.
func ReadProgramFile(r io.Reader) (*RecordedProgram, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("pattern: empty program file")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != progMagic {
		return nil, fmt.Errorf("pattern: bad program header %q", sc.Text())
	}
	prog := &RecordedProgram{}
	var err error
	if prog.TamWidth, err = intField(header[1], "tam"); err != nil {
		return nil, err
	}
	if prog.FuncBus, err = intField(header[2], "func"); err != nil {
		return nil, err
	}
	nSessions, err := intField(header[3], "sessions")
	if err != nil {
		return nil, err
	}
	var cur *RecordedSession
	var lanes map[string]int
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "SESSION "):
			fields := strings.Fields(text)
			if len(fields) != 3 {
				return nil, fmt.Errorf("pattern: line %d: bad session header", line)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: bad session index", line)
			}
			prog.Sessions = append(prog.Sessions, RecordedSession{Index: idx})
			cur = &prog.Sessions[len(prog.Sessions)-1]
			lanes = make(map[string]int)
		case strings.HasPrefix(text, "V "):
			if cur == nil {
				return nil, fmt.Errorf("pattern: line %d: vector before any session", line)
			}
			rc, err := parseVectorLine(text, prog.TamWidth, prog.FuncBus, cur, lanes)
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: %w", line, err)
			}
			cur.Cycles = append(cur.Cycles, rc)
		case strings.TrimSpace(text) == "":
		default:
			return nil, fmt.Errorf("pattern: line %d: unrecognized %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(prog.Sessions) != nSessions {
		return nil, fmt.Errorf("pattern: header says %d sessions, file has %d",
			nSessions, len(prog.Sessions))
	}
	return prog, nil
}

func intField(s, key string) (int, error) {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k != key {
		return 0, fmt.Errorf("pattern: expected %s=<n>, got %q", key, s)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("pattern: bad %s value %q", key, v)
	}
	return n, nil
}

// parseVectorLine parses one V line of session cur; lanes maps the core
// names already in cur.Lanes to their index.
func parseVectorLine(text string, tamW, funcW int, cur *RecordedSession, lanes map[string]int) (RecordedCycle, error) {
	fields := strings.Fields(text)
	if len(fields) != 6 {
		return RecordedCycle{}, fmt.Errorf("want 6 fields, got %d", len(fields))
	}
	var rc RecordedCycle
	var err error
	if rc.TamIn, err = parseBits(fields[1], tamW, "01X"); err != nil {
		return rc, err
	}
	if rc.TamExpect, err = parseBits(fields[2], tamW, "LHX"); err != nil {
		return rc, err
	}
	if rc.Func, err = parseBits(fields[3], funcW, "01X"); err != nil {
		return rc, err
	}
	if rc.FuncExpect, err = parseBits(fields[4], funcW, "LHX"); err != nil {
		return rc, err
	}
	if fields[5] == "-" {
		return rc, nil
	}
	parts := strings.Split(fields[5], ",")
	type named struct {
		lane int
		act  CoreAction
	}
	acts := make([]named, 0, len(parts))
	for _, part := range parts {
		name, act, ok := strings.Cut(part, ":")
		if !ok {
			return rc, fmt.Errorf("bad action %q", part)
		}
		var a CoreAction
		switch act {
		case "S":
			a = ActShift
		case "C":
			a = ActCapture
		default:
			return rc, fmt.Errorf("unknown action %q", act)
		}
		i, ok := lanes[name]
		if !ok {
			i = len(cur.Lanes)
			lanes[name] = i
			cur.Lanes = append(cur.Lanes, name)
		}
		acts = append(acts, named{i, a})
	}
	rc.Actions = make([]CoreAction, len(cur.Lanes))
	for _, a := range acts {
		rc.Actions[a.lane] = a.act
	}
	return rc, nil
}

func parseBits(s string, width int, alphabet string) (Bus, error) {
	if s == "-" {
		if width != 0 {
			return Bus{}, fmt.Errorf("empty bus but width %d", width)
		}
		return NewBus(0), nil
	}
	if len(s) != width {
		return Bus{}, fmt.Errorf("bus has %d chars, want %d", len(s), width)
	}
	bus := NewBus(width)
	for i := 0; i < width; i++ {
		idx := strings.IndexByte(alphabet, s[i])
		if idx < 0 {
			return Bus{}, fmt.Errorf("invalid char %q (alphabet %s)", string(s[i]), alphabet)
		}
		bus.Set(i, Bit(idx))
	}
	return bus, nil
}
