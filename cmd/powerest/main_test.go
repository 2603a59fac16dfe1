package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for powerest: with
// POWEREST_RUN_MAIN set it runs main on its command line, so the tests
// below drive the real flag parsing and exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("POWEREST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsOutOfRangeFlags: an out-of-range -p1, -vectors or -top gets
// a one-line error and a non-zero exit, not a nonsense power, a leakage-
// only estimate or a panic.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-p1", "1.7"},
		{"-vectors", "-5"},
		{"-vectors", "0"},
		{"-top", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-circuit", "mult4"}, args...)...)
		cmd.Env = append(os.Environ(), "POWEREST_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("powerest %v exited 0:\n%s", args, out)
		}
		if strings.Contains(string(out), "goroutine") {
			t.Errorf("powerest %v crashed:\n%s", args, out)
		}
		if !strings.HasPrefix(string(out), "powerest: "+args[0]+" ") {
			t.Errorf("powerest %v: want a one-line %s error, got:\n%s", args, args[0], out)
		}
	}
}
