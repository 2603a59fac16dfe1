package logic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ReadBLIF parses a subset of the Berkeley BLIF format sufficient for the
// MCNC-style benchmarks used by the experiments:
//
//	.model NAME
//	.inputs A B ...
//	.outputs X Y ...
//	.names in1 in2 ... out     followed by cover rows like "1-0 1"
//	.latch input output [init]
//	.end
//
// Each .names cover is synthesized as a two-level AND/OR tree of primitive
// gates. Unlisted signals referenced before definition are resolved after
// the whole file is read.
func ReadBLIF(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	// The buffer grows as lines need it, up to the 1 MiB line limit.
	sc.Buffer(nil, 1<<20)

	var (
		name     string
		inputs   []string
		outputs  []string
		latches  [][3]string // d, q, init
		names    []namesDecl
		current  *namesDecl
		lineNo   int
		joinPrev string
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if joinPrev != "" {
			line = joinPrev + " " + line
			joinPrev = ""
		}
		if strings.HasSuffix(line, "\\") {
			joinPrev = strings.TrimSuffix(line, "\\")
			continue
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				name = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			current = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			current = nil
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif:%d: .latch needs input and output", lineNo)
			}
			init := "0"
			if len(fields) >= 4 {
				init = fields[len(fields)-1]
			}
			latches = append(latches, [3]string{fields[1], fields[2], init})
			current = nil
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif:%d: .names needs at least an output", lineNo)
			}
			names = append(names, namesDecl{
				ins: append([]string(nil), fields[1:len(fields)-1]...),
				out: fields[len(fields)-1],
			})
			current = &names[len(names)-1]
		case ".end":
			current = nil
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Unsupported directive: ignore (e.g. .default_input_arrival).
				current = nil
				continue
			}
			if current == nil {
				return nil, fmt.Errorf("blif:%d: cover row outside .names", lineNo)
			}
			row, err := parseCoverRow(fields, len(current.ins), lineNo)
			if err != nil {
				return nil, err
			}
			current.rows = append(current.rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return buildFromBLIF(name, inputs, outputs, latches, names)
}

type namesDecl struct {
	ins  []string
	out  string
	rows []coverRow
}

type coverRow struct {
	lits []byte // one of '0','1','-' per input
	out  byte   // '0' or '1'
}

func parseCoverRow(fields []string, nin, lineNo int) (coverRow, error) {
	var lits, out string
	switch {
	case nin == 0 && len(fields) == 1:
		out = fields[0]
	case len(fields) == 2:
		lits, out = fields[0], fields[1]
	default:
		return coverRow{}, fmt.Errorf("blif:%d: malformed cover row", lineNo)
	}
	if len(lits) != nin {
		return coverRow{}, fmt.Errorf("blif:%d: cover row has %d literals, .names has %d inputs", lineNo, len(lits), nin)
	}
	for _, c := range lits {
		if c != '0' && c != '1' && c != '-' {
			return coverRow{}, fmt.Errorf("blif:%d: bad literal %q", lineNo, c)
		}
	}
	if out != "0" && out != "1" {
		return coverRow{}, fmt.Errorf("blif:%d: bad output value %q", lineNo, out)
	}
	return coverRow{lits: []byte(lits), out: out[0]}, nil
}

func buildFromBLIF(name string, inputs, outputs []string, latches [][3]string, names []namesDecl) (*Network, error) {
	nw := New(name)
	resolve := make(map[string]NodeID)
	// Names of all declared signals: auto-generated helper nodes must not
	// collide with covers defined later in the file.
	reserved := make(map[string]bool)
	for _, d := range names {
		reserved[d.out] = true
	}
	for _, l := range latches {
		reserved[l[1]] = true
	}
	for _, in := range inputs {
		id, err := nw.AddInput(in)
		if err != nil {
			return nil, err
		}
		resolve[in] = id
	}
	// Declare latch outputs up front: they are sources for the
	// combinational logic. Their D fanin is patched afterwards.
	type latchFix struct {
		q NodeID
		d string
	}
	var fixes []latchFix
	// Latches need a placeholder D; use a temporary const that we rewire.
	for _, l := range latches {
		ph, err := nw.AddConst("__ph_"+l[1], false)
		if err != nil {
			return nil, err
		}
		q, err := nw.AddDFF(l[1], ph, l[2] == "1")
		if err != nil {
			return nil, err
		}
		resolve[l[1]] = q
		fixes = append(fixes, latchFix{q: q, d: l[0]})
	}
	// Build .names in dependency order (iterate until all resolvable).
	pending := append([]namesDecl(nil), names...)
	for len(pending) > 0 {
		progress := false
		var next []namesDecl
		for _, d := range pending {
			ok := true
			for _, in := range d.ins {
				if _, have := resolve[in]; !have {
					ok = false
					break
				}
			}
			if !ok {
				next = append(next, d)
				continue
			}
			id, err := synthCover(nw, d, resolve, reserved)
			if err != nil {
				return nil, err
			}
			resolve[d.out] = id
			progress = true
		}
		if !progress {
			var missing []string
			for _, d := range next {
				missing = append(missing, d.out)
			}
			sort.Strings(missing)
			return nil, fmt.Errorf("blif: unresolvable or cyclic signals: %s", strings.Join(missing, ", "))
		}
		pending = next
	}
	for _, f := range fixes {
		d, ok := resolve[f.d]
		if !ok {
			return nil, fmt.Errorf("blif: latch input %q undefined", f.d)
		}
		ph := nw.Node(f.q).Fanin[0]
		if err := nw.ReplaceFanin(f.q, ph, d); err != nil {
			return nil, err
		}
		if err := nw.DeleteNode(ph); err != nil {
			return nil, err
		}
	}
	for _, out := range outputs {
		id, ok := resolve[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %q undefined", out)
		}
		if err := nw.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// synthCover builds a two-level AND/OR realization of one .names cover.
func synthCover(nw *Network, d namesDecl, resolve map[string]NodeID, reserved map[string]bool) (NodeID, error) {
	// Constant covers.
	if len(d.ins) == 0 {
		val := false
		for _, r := range d.rows {
			if r.out == '1' {
				val = true
			}
		}
		return nw.AddConst(d.out, val)
	}
	// BLIF allows covers written in terms of the OFF-set (output 0 rows);
	// the ON-set then is the complement. We support pure ON-set or pure
	// OFF-set covers.
	on, off := 0, 0
	for _, r := range d.rows {
		if r.out == '1' {
			on++
		} else {
			off++
		}
	}
	if on > 0 && off > 0 {
		return InvalidNode, fmt.Errorf("blif: mixed on/off cover for %q unsupported", d.out)
	}
	complemented := off > 0 && on == 0
	rows := d.rows
	if len(rows) == 0 {
		return nw.AddConst(d.out, false)
	}
	var terms []NodeID
	for _, r := range rows {
		var lits []NodeID
		for i, c := range r.lits {
			in := resolve[d.ins[i]]
			switch c {
			case '1':
				lits = append(lits, in)
			case '0':
				inv, err := getInverter(nw, in, reserved)
				if err != nil {
					return InvalidNode, err
				}
				lits = append(lits, inv)
			}
		}
		switch len(lits) {
		case 0:
			// Row of all dashes: tautology.
			c, err := nw.AddConst(uniqueName2(nw, d.out+"_t", reserved), true)
			if err != nil {
				return InvalidNode, err
			}
			terms = append(terms, c)
		case 1:
			terms = append(terms, lits[0])
		default:
			t, err := nw.AddGate(uniqueName2(nw, d.out+"_and", reserved), And, lits...)
			if err != nil {
				return InvalidNode, err
			}
			terms = append(terms, t)
		}
	}
	var root NodeID
	var err error
	if len(terms) == 1 {
		if complemented {
			root, err = nw.AddGate(d.out, Not, terms[0])
		} else {
			root, err = nw.AddGate(d.out, Buf, terms[0])
		}
	} else {
		if complemented {
			root, err = nw.AddGate(d.out, Nor, terms...)
		} else {
			root, err = nw.AddGate(d.out, Or, terms...)
		}
	}
	return root, err
}

func getInverter(nw *Network, in NodeID, reserved map[string]bool) (NodeID, error) {
	// Reuse an existing inverter on this net if present.
	for _, c := range nw.Node(in).Fanout() {
		cn := nw.Node(c)
		if cn != nil && cn.Type == Not && len(cn.Fanin) == 1 {
			return c, nil
		}
	}
	return nw.AddGate(uniqueName2(nw, nw.Node(in).Name+"_n", reserved), Not, in)
}

// WriteBLIF emits the network in the BLIF subset accepted by ReadBLIF.
// Each gate becomes one .names cover.
func WriteBLIF(w io.Writer, nw *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nw.Name)
	fmt.Fprint(bw, ".inputs")
	for _, pi := range nw.pis {
		fmt.Fprintf(bw, " %s", nw.nodes[pi].Name)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for i, po := range nw.pos {
		fmt.Fprintf(bw, " %s", outName(nw, po, i))
	}
	fmt.Fprintln(bw)
	for _, f := range nw.ffs {
		n := nw.nodes[f]
		init := "0"
		if n.InitVal {
			init = "1"
		}
		fmt.Fprintf(bw, ".latch %s %s %s\n", nw.nodes[n.Fanin[0]].Name, n.Name, init)
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		if err := writeCover(bw, nw, nw.nodes[id]); err != nil {
			return err
		}
	}
	// Alias covers for POs that are PIs or FFs (cannot carry a distinct name).
	for i, po := range nw.pos {
		alias := outName(nw, po, i)
		if alias != nw.nodes[po].Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", nw.nodes[po].Name, alias)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// outName gives the emitted name for PO index i driven by node po. If the
// driver is a PI or FF, BLIF requires an alias net.
func outName(nw *Network, po NodeID, i int) string {
	n := nw.nodes[po]
	if n.Type == Input || n.Type == DFF {
		return fmt.Sprintf("%s_po%d", n.Name, i)
	}
	return n.Name
}

func writeCover(w io.Writer, nw *Network, n *Node) error {
	in := func(i int) string { return nw.nodes[n.Fanin[i]].Name }
	switch n.Type {
	case Const0:
		fmt.Fprintf(w, ".names %s\n", n.Name) // empty cover = constant 0
	case Const1:
		fmt.Fprintf(w, ".names %s\n1\n", n.Name)
	case Buf:
		fmt.Fprintf(w, ".names %s %s\n1 1\n", in(0), n.Name)
	case Not:
		fmt.Fprintf(w, ".names %s %s\n0 1\n", in(0), n.Name)
	case And, Nand:
		fmt.Fprintf(w, ".names")
		for i := range n.Fanin {
			fmt.Fprintf(w, " %s", in(i))
		}
		fmt.Fprintf(w, " %s\n", n.Name)
		row := strings.Repeat("1", len(n.Fanin))
		if n.Type == And {
			fmt.Fprintf(w, "%s 1\n", row)
		} else {
			fmt.Fprintf(w, "%s 0\n", row)
		}
	case Or, Nor:
		fmt.Fprintf(w, ".names")
		for i := range n.Fanin {
			fmt.Fprintf(w, " %s", in(i))
		}
		fmt.Fprintf(w, " %s\n", n.Name)
		val := byte('1')
		if n.Type == Nor {
			val = '0'
		}
		for i := range n.Fanin {
			row := make([]byte, len(n.Fanin))
			for j := range row {
				row[j] = '-'
			}
			row[i] = '1'
			fmt.Fprintf(w, "%s %c\n", row, val)
		}
	case Xor, Xnor:
		fmt.Fprintf(w, ".names")
		for i := range n.Fanin {
			fmt.Fprintf(w, " %s", in(i))
		}
		fmt.Fprintf(w, " %s\n", n.Name)
		k := len(n.Fanin)
		for m := 0; m < 1<<k; m++ {
			ones := 0
			row := make([]byte, k)
			for j := 0; j < k; j++ {
				if m&(1<<j) != 0 {
					row[j] = '1'
					ones++
				} else {
					row[j] = '0'
				}
			}
			odd := ones%2 == 1
			if (n.Type == Xor && odd) || (n.Type == Xnor && !odd) {
				fmt.Fprintf(w, "%s 1\n", row)
			}
		}
	default:
		return fmt.Errorf("blif: cannot emit node type %s", n.Type)
	}
	return nil
}

// uniqueName2 is Network.FreshName that additionally avoids a reserved
// name set (signals declared later in a BLIF file).
func uniqueName2(nw *Network, base string, reserved map[string]bool) string {
	if nw.ByName(base) == InvalidNode && !reserved[base] {
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s_%d", base, i)
		if nw.ByName(cand) == InvalidNode && !reserved[cand] {
			return cand
		}
	}
}
