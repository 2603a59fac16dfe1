package cliutil

import (
	"fmt"
	"os"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// LoadNetwork resolves a command's -circuit/-blif flag pair: a built-in
// generator name (circuits.Named) or a BLIF file path, exactly one of
// them.
func LoadNetwork(circuit, blif string) (*logic.Network, error) {
	switch {
	case circuit != "" && blif != "":
		return nil, fmt.Errorf("specify -circuit or -blif, not both")
	case circuit != "":
		return circuits.Named(circuit)
	case blif != "":
		f, err := os.Open(blif)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return logic.ReadBLIF(f)
	default:
		return nil, fmt.Errorf("specify -circuit or -blif")
	}
}
