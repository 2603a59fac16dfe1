package experiments

import (
	"repro/internal/balance"
	"repro/internal/circuits"
	"repro/internal/logic"
)

// buildNamed constructs a benchmark circuit by short name: a name in the
// circuits registry (circuits.Named), or one of the sizes only the
// experiments use.
func buildNamed(name string) (*logic.Network, error) {
	switch name {
	case "radd4":
		return circuits.RippleAdder(4)
	case "radd6":
		return circuits.RippleAdder(6)
	case "cmp4":
		return circuits.Comparator(4)
	case "alu3":
		return circuits.ALU(3)
	case "parch12":
		return circuits.ParityChain(12)
	case "dec4":
		return circuits.Decoder(4)
	case "mux8":
		return circuits.MuxTree(3)
	}
	return circuits.Named(name)
}

// balanceFull applies full path balancing and returns the buffer count.
func balanceFull(nw *logic.Network) (int, error) {
	res, err := balance.Balance(nw, balance.Options{MaxSkew: 0})
	if err != nil {
		return 0, err
	}
	return res.BuffersAdded, nil
}
