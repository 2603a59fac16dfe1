package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for lpflow: with LPFLOW_RUN_MAIN
// set it runs main on its command line, so the tests below drive the real
// flag parsing and output paths.
func TestMain(m *testing.M) {
	if os.Getenv("LPFLOW_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfileOutputsPinned runs `lpflow -profile` on fixed circuits and
// flows and requires the hottest-nodes table (with its glitch% column)
// and both folded-stack files to match testdata byte for byte. The
// mult4/area and cnt3 (sequential) cases list every node, so every
// glitch share is pinned. trace.json, which holds wall-clock times, is
// checked for its shape instead (checkFlowTrace).
func TestProfileOutputsPinned(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"mult4-lowpower", []string{"-circuit", "mult4", "-flow", "lowpower", "-top", "10"}},
		{"radd8-glitch", []string{"-circuit", "radd8", "-flow", "glitch", "-top", "10"}},
		{"mult4-area", []string{"-circuit", "mult4", "-flow", "area", "-top", "100"}},
		{"cnt3-area", []string{"-blif", filepath.Join("testdata", "cnt3.blif"), "-flow", "area", "-top", "100"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], append(c.args, "-profile", dir)...)
			cmd.Env = append(os.Environ(), "LPFLOW_RUN_MAIN=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("lpflow %v: %v", c.args, err)
			}
			stdout := string(out)
			start := strings.Index(stdout, "hottest nodes")
			end := strings.Index(stdout, "profiles written to ")
			if start < 0 || end < start {
				t.Fatalf("lpflow output has no hottest-nodes table:\n%s", stdout)
			}
			want := filepath.Join("testdata", c.name)
			compare(t, "top.txt", stdout[start:end], want)
			for _, f := range []string{"power.folded", "power_est.folded"} {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				compare(t, f, string(got), want)
			}
			checkFlowTrace(t, filepath.Join(dir, "trace.json"), c.args[slices.Index(c.args, "-flow")+1])
		})
	}
}

// checkFlowTrace requires one pass.<name> event per pass of the flow, in
// flow order, each carrying the pass's level and deltas, and at least one
// engine span (core.measure) whose parent is one of those passes.
func checkFlowTrace(t *testing.T, path, flowName string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	var passes []string
	passIDs := map[any]bool{}
	nested := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Cat == "pass" {
			passes = append(passes, ev.Name)
			passIDs[ev.Args["span_id"]] = true
			for _, k := range []string{"level", "dpower", "dexactp", "dgates", "ddepth"} {
				if _, ok := ev.Args[k]; !ok {
					t.Errorf("%s event lacks %q: %v", ev.Name, k, ev.Args)
				}
			}
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "core.measure" && passIDs[ev.Args["parent_id"]] {
			nested = true
		}
	}
	var want []string
	for _, p := range core.StandardFlows()[flowName].Passes {
		want = append(want, "pass."+p)
	}
	if !slices.Equal(passes, want) {
		t.Errorf("trace.json pass events %v, want %v", passes, want)
	}
	if !nested {
		t.Errorf("trace.json has no core.measure span under a pass")
	}
}

// TestRejectsNegativeLimits: a negative -bdd-budget or -timeout is a
// one-line "lpflow: …" error and exit status 1, not an unbudgeted run.
func TestRejectsNegativeLimits(t *testing.T) {
	for _, args := range [][]string{
		{"-circuit", "mult4", "-bdd-budget", "-5"},
		{"-circuit", "mult4", "-timeout", "-1s"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "LPFLOW_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("lpflow %v: %v, want exit status 1", args, err)
		}
		msg := stderr.String()
		if len(out) != 0 || !strings.HasPrefix(msg, "lpflow: ") || !strings.Contains(msg, "negative") || strings.Count(msg, "\n") != 1 {
			t.Errorf("lpflow %v: stdout %q, stderr %q, want one \"lpflow: …negative…\" line", args, out, msg)
		}
	}
}

// compare fails unless got equals the file name in dir.
func compare(t *testing.T, name, got, dir string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n--- got ---\n%s--- want ---\n%s", name, filepath.Join(dir, name), got, want)
	}
}
