// Package tmap implements technology mapping by tree covering on a
// NAND2/INV subject graph, in the DAGON style of Keutzer [20], with
// selectable objectives: area, delay, or power. The power objective
// follows Tiwari/Ashar/Malik [43] and Tsui/Pedram/Despain [48]: the cost
// of a match charges each visible (leaf) net with the switching activity
// it carries times the input capacitance of the pin it drives, so the
// mapper prefers to hide high-activity nets inside complex cells.
package tmap

// patKind is a node of a cell's pattern tree over the subject graph.
type patKind int

const (
	leafPat patKind = iota
	invPat
	nandPat
)

// pattern is a cell's shape over the NAND2/INV subject graph. Leaves carry
// a pin index; two leaves with the same index must bind the same subject
// node (needed for XOR-class cells, whose NAND realization repeats
// inputs).
type pattern struct {
	kind     patKind
	pin      int
	children []*pattern
}

func leafv(pin int) *pattern      { return &pattern{kind: leafPat, pin: pin} }
func inv(c *pattern) *pattern     { return &pattern{kind: invPat, children: []*pattern{c}} }
func nand(a, b *pattern) *pattern { return &pattern{kind: nandPat, children: []*pattern{a, b}} }

// Cell is one library element.
type Cell struct {
	Name string
	// Area in equivalent minimum-gate units.
	Area float64
	// Delay is the intrinsic propagation delay.
	Delay float64
	// CapPerPin is the input capacitance each pin presents to its driver.
	CapPerPin float64
	// Inputs is the number of distinct pins.
	Inputs int

	pat *pattern
}

// Library is an ordered set of cells. All matching cells compete in the
// covering DP under the selected objective.
type Library struct {
	Cells []Cell
}

// DefaultLibrary returns a small static-CMOS library with 1995-flavour
// relative areas, delays and pin capacitances. Complex cells (AOI/OAI)
// have more series transistors — slower, but they hide internal nets,
// which is exactly what the power objective exploits.
func DefaultLibrary() *Library {
	return &Library{Cells: []Cell{
		{Name: "INV", Area: 1, Delay: 1.0, CapPerPin: 1.0, Inputs: 1,
			pat: inv(leafv(0))},
		{Name: "BUF", Area: 1.5, Delay: 1.5, CapPerPin: 1.0, Inputs: 1,
			pat: inv(inv(leafv(0)))},
		{Name: "NAND2", Area: 2, Delay: 1.2, CapPerPin: 1.1, Inputs: 2,
			pat: nand(leafv(0), leafv(1))},
		{Name: "AND2", Area: 2.5, Delay: 1.8, CapPerPin: 1.1, Inputs: 2,
			pat: inv(nand(leafv(0), leafv(1)))},
		{Name: "NOR2", Area: 2.2, Delay: 1.4, CapPerPin: 1.2, Inputs: 2,
			pat: inv(nand(inv(leafv(0)), inv(leafv(1))))},
		{Name: "OR2", Area: 2.7, Delay: 2.0, CapPerPin: 1.2, Inputs: 2,
			pat: nand(inv(leafv(0)), inv(leafv(1)))},
		{Name: "NAND3", Area: 3, Delay: 1.6, CapPerPin: 1.2, Inputs: 3,
			pat: nand(leafv(0), inv(nand(leafv(1), leafv(2))))},
		{Name: "NAND4", Area: 4, Delay: 2.0, CapPerPin: 1.3, Inputs: 4,
			pat: nand(inv(nand(leafv(0), leafv(1))), inv(nand(leafv(2), leafv(3))))},
		{Name: "AOI21", Area: 3, Delay: 1.7, CapPerPin: 1.2, Inputs: 3,
			pat: inv(nand(nand(leafv(0), leafv(1)), inv(leafv(2))))},
		{Name: "OAI21", Area: 3, Delay: 1.7, CapPerPin: 1.2, Inputs: 3,
			pat: nand(nand(inv(leafv(0)), inv(leafv(1))), leafv(2))},
		{Name: "AOI22", Area: 4, Delay: 2.1, CapPerPin: 1.3, Inputs: 4,
			pat: inv(nand(nand(leafv(0), leafv(1)), nand(leafv(2), leafv(3))))},
		{Name: "XOR2", Area: 4.5, Delay: 2.4, CapPerPin: 1.5, Inputs: 2,
			pat: xorPattern()},
		{Name: "XNOR2", Area: 4.5, Delay: 2.4, CapPerPin: 1.5, Inputs: 2,
			pat: inv(xorPattern())},
	}}
}

// xorPattern is the 4-NAND realization of a ^ b with the shared middle
// NAND duplicated (tree patterns cannot share):
// nand(nand(a, nand(a,b)), nand(b, nand(a,b))). The decomposer emits Xor
// gates in exactly this duplicated shape so the cell can match.
func xorPattern() *pattern {
	return nand(
		nand(leafv(0), nand(leafv(0), leafv(1))),
		nand(leafv(1), nand(leafv(0), leafv(1))),
	)
}
