package repro

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goroutineAllowlist names the places, relative to the module root, whose
// non-test code may start goroutines, each with its reason; a directory
// covers every file under it. Parallelism lives where requests and tables
// are scheduled, so an engine call is one sequential run and the callers'
// pools keep the cores busy.
var goroutineAllowlist = map[string]string{
	"internal/server":                "the worker pool, batch fan-out, async jobs and selfcheck schedule requests",
	"internal/experiments/runner.go": "RunAllCtx runs experiment tables on a bounded worker pool",
	"cmd":                            "command mains serve listeners and wait for shutdown signals",
}

// TestNoGoroutinesOutsideSchedulers fails on any go statement in the
// non-test Go of the root module outside goroutineAllowlist, and on
// allowlist lines that cover no go statement.
func TestNoGoroutinesOutsideSchedulers(t *testing.T) {
	bad, stale, err := unscheduledGoroutines(".", "repro", goroutineAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range bad {
		t.Errorf("%s: go statement outside the request and table schedulers; run sequentially and let the caller's pool supply the parallelism", pos)
	}
	for _, key := range stale {
		t.Errorf("allowlist line %s covers no go statement; remove it", key)
	}
	for key, reason := range goroutineAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist line %s gives no reason", key)
		}
	}
}

// TestGoroutineGuardFixture checks that the scan flags a goroutine in an
// engine package, in a function literal and in a method, and passes over
// allowlisted directories and files, test files and nested modules, and
// that it reports an allowlist line covering nothing.
func TestGoroutineGuardFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/sim/measure.go": `package sim

type S struct{}

func Run(n int) {
	done := make(chan bool)
	for i := 0; i < n; i++ {
		go func() { done <- true }()
	}
	f := func() { go Run(0) }
	f()
}

func (S) Step() { go Run(1) }
`,
		"internal/sim/measure_test.go": "package sim\n\nfunc helper() { go Run(2) }\n",
		"internal/server/pool.go":      "package server\n\nfunc Serve() { go Serve() }\n",
		"internal/exp/runner.go":       "package exp\n\nfunc RunAll() { go RunAll() }\n",
		"internal/exp/table.go":        "package exp\n\nfunc Table() { go Table() }\n",
		"nested/go.mod":                "module fix/nested\n\ngo 1.22\n",
		"nested/n.go":                  "package nested\n\nfunc N() { go N() }\n",
	}
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"internal/server":        "pool",
		"internal/exp/runner.go": "tables",
		"internal/stale":         "nothing here",
	}
	bad, stale, err := unscheduledGoroutines(dir, "fix", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/exp/table.go:3:16",
		"internal/sim/measure.go:8:3",
		"internal/sim/measure.go:10:16",
		"internal/sim/measure.go:14:19",
	}
	if strings.Join(bad, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %q, want %q", bad, want)
	}
	if strings.Join(stale, " ") != "internal/stale" {
		t.Errorf("stale allowlist lines %q, want [internal/stale]", stale)
	}
}

// unscheduledGoroutines returns the path:line:col, relative to root, of
// every go statement in the non-test files of the module at root (nested
// modules skipped) that no allow key covers, in walk order, and the allow
// keys that cover none, sorted. A key covers the file at that relative
// path and every file under the directory at that relative path.
func unscheduledGoroutines(root, module string, allow map[string]string) (bad, stale []string, err error) {
	used := map[string]bool{}
	fset := token.NewFileSet()
	err = walkModule(fset, root, module, false, func(_ string, _ map[string]string, f *ast.File) error {
		rel, err := filepath.Rel(root, fset.Position(f.Pos()).Filename)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			for key := range allow {
				if rel == key || strings.HasPrefix(rel, key+"/") {
					used[key] = true
					return true
				}
			}
			p := fset.Position(g.Pos())
			bad = append(bad, fmt.Sprintf("%s:%d:%d", rel, p.Line, p.Column))
			return true
		})
		return nil
	})
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return bad, stale, err
}
