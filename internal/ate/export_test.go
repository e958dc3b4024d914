package ate

// CheckChipGolden exposes the golden harness to the external test package,
// which can import scenario (and through it core) without an import cycle.
var CheckChipGolden = checkChipGolden
