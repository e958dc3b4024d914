package netlist

import (
	"fmt"
	"sync"
)

// Cell is a primitive standard cell: a combinational gate, a flip-flop or a
// latch.  Area is in NAND2 equivalents.
type Cell struct {
	Name    string
	Inputs  []string
	Outputs []string
	Area    float64

	// Seq marks sequential cells.  Sequential cells expose their stored
	// bit on output "Q" (and optionally "QN"); Clock names the edge input.
	Seq   bool
	Clock string
	// Eval computes the outputs of a combinational cell from its inputs.
	// For sequential cells Eval computes the *next state* from the inputs
	// and the current state (passed under key "Q").
	Eval func(in map[string]bool) map[string]bool
}

// Library is a set of primitive cells indexed by name.
type Library struct {
	cells map[string]*Cell
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{cells: make(map[string]*Cell)} }

// Add registers a cell definition.
func (l *Library) Add(c *Cell) error {
	if _, ok := l.cells[c.Name]; ok {
		return fmt.Errorf("netlist: duplicate cell %s", c.Name)
	}
	l.cells[c.Name] = c
	return nil
}

// Cell looks up a cell by name.
func (l *Library) Cell(name string) (*Cell, bool) {
	c, ok := l.cells[name]
	return c, ok
}

// Names of cells commonly used by the generators.
const (
	CellInv    = "INV"
	CellBuf    = "BUF"
	CellNand2  = "NAND2"
	CellNor2   = "NOR2"
	CellAnd2   = "AND2"
	CellOr2    = "OR2"
	CellXor2   = "XOR2"
	CellXnor2  = "XNOR2"
	CellMux2   = "MUX2"  // Z = S ? B : A
	CellDFF    = "DFF"   // posedge CK
	CellSDFF   = "SDFF"  // scan DFF: SE ? SI : D
	CellDFFR   = "DFFR"  // async active-high reset R
	CellLatchL = "LATEN" // level-sensitive latch, enable EN
	CellTie0   = "TIE0"
	CellTie1   = "TIE1"
)

// defaultLib builds the shared library once, on first use from any
// goroutine.
var defaultLib = sync.OnceValue(newDefaultLibrary)

// DefaultLibrary returns the shared primitive library.  Areas follow the
// paper's NAND2-equivalent accounting: the generated WBR cell built from
// these primitives totals 26 gates, matching the published figure.  It is
// safe for concurrent use.
func DefaultLibrary() *Library { return defaultLib() }

func newDefaultLibrary() *Library {
	l := NewLibrary()
	comb := func(name string, area float64, ins []string, eval func(map[string]bool) bool) {
		c := &Cell{Name: name, Inputs: ins, Outputs: []string{"Z"}, Area: area,
			Eval: func(in map[string]bool) map[string]bool {
				return map[string]bool{"Z": eval(in)}
			}}
		if err := l.Add(c); err != nil {
			panic(err)
		}
	}
	comb(CellInv, 1, []string{"A"}, func(in map[string]bool) bool { return !in["A"] })
	comb(CellBuf, 1, []string{"A"}, func(in map[string]bool) bool { return in["A"] })
	comb(CellNand2, 1, []string{"A", "B"}, func(in map[string]bool) bool { return !(in["A"] && in["B"]) })
	comb(CellNor2, 1, []string{"A", "B"}, func(in map[string]bool) bool { return !(in["A"] || in["B"]) })
	comb(CellAnd2, 2, []string{"A", "B"}, func(in map[string]bool) bool { return in["A"] && in["B"] })
	comb(CellOr2, 2, []string{"A", "B"}, func(in map[string]bool) bool { return in["A"] || in["B"] })
	comb(CellXor2, 3, []string{"A", "B"}, func(in map[string]bool) bool { return in["A"] != in["B"] })
	comb(CellXnor2, 3, []string{"A", "B"}, func(in map[string]bool) bool { return in["A"] == in["B"] })
	comb(CellMux2, 4, []string{"A", "B", "S"}, func(in map[string]bool) bool {
		if in["S"] {
			return in["B"]
		}
		return in["A"]
	})
	comb(CellTie0, 0, nil, func(map[string]bool) bool { return false })
	comb(CellTie1, 0, nil, func(map[string]bool) bool { return true })

	// Sequential cells.  Eval computes next state from inputs + current
	// state ("Q"); the simulator exposes Q (and QN) as outputs.
	must := func(c *Cell) {
		if err := l.Add(c); err != nil {
			panic(err)
		}
	}
	must(&Cell{
		Name: CellDFF, Inputs: []string{"D", "CK"}, Outputs: []string{"Q", "QN"},
		Area: 8, Seq: true, Clock: "CK",
		Eval: func(in map[string]bool) map[string]bool {
			return map[string]bool{"Q": in["D"]}
		},
	})
	must(&Cell{
		Name: CellSDFF, Inputs: []string{"D", "SI", "SE", "CK"}, Outputs: []string{"Q", "QN"},
		Area: 10, Seq: true, Clock: "CK",
		Eval: func(in map[string]bool) map[string]bool {
			d := in["D"]
			if in["SE"] {
				d = in["SI"]
			}
			return map[string]bool{"Q": d}
		},
	})
	must(&Cell{
		Name: CellDFFR, Inputs: []string{"D", "CK", "R"}, Outputs: []string{"Q", "QN"},
		Area: 9, Seq: true, Clock: "CK",
		Eval: func(in map[string]bool) map[string]bool {
			if in["R"] {
				return map[string]bool{"Q": false}
			}
			return map[string]bool{"Q": in["D"]}
		},
	})
	must(&Cell{
		Name: CellLatchL, Inputs: []string{"D", "EN"}, Outputs: []string{"Q"},
		Area: 6, Seq: true, Clock: "EN",
		Eval: func(in map[string]bool) map[string]bool {
			if in["EN"] {
				return map[string]bool{"Q": in["D"]}
			}
			return map[string]bool{"Q": in["Q"]}
		},
	})
	return l
}
