package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// TestLoadNetwork covers both sources and the flag-pair errors: exactly
// one of -circuit and -blif, and an unknown name lists the choices.
func TestLoadNetwork(t *testing.T) {
	nw, err := LoadNetwork("mult4", "")
	if err != nil || nw.Name != "mult4" {
		t.Fatalf("named circuit: %v, %v", nw, err)
	}
	path := filepath.Join(t.TempDir(), "mult4.blif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := logic.WriteBLIF(f, nw); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fromFile, err := LoadNetwork("", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile.PIs()) != len(nw.PIs()) || len(fromFile.POs()) != len(nw.POs()) {
		t.Errorf("BLIF round trip: %d/%d PIs/POs, want %d/%d", len(fromFile.PIs()), len(fromFile.POs()), len(nw.PIs()), len(nw.POs()))
	}
	for _, c := range []struct{ circuit, blif, want string }{
		{"mult4", path, "not both"},
		{"", "", "specify -circuit or -blif"},
		{"no-such", "", strings.Join(circuits.GeneratorNames(), " ")},
		{"", filepath.Join(t.TempDir(), "missing.blif"), "missing.blif"},
	} {
		if _, err := LoadNetwork(c.circuit, c.blif); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("LoadNetwork(%q, %q) = %v, want an error containing %q", c.circuit, c.blif, err, c.want)
		}
	}
}
