package repro

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dupWindow is the length, in tokens, of the shortest run of code the
// duplicate scan reports: about six to eight lines of Go.
const dupWindow = 60

// dupAllowlist names the files whose duplicated token windows stay, each
// with its reason. A window is exempt when every copy of it lies in one
// file named here. Keys are slash paths relative to the repository root.
var dupAllowlist = map[string]string{
	"internal/sw/kernels.go": "E16's assembly listings: each kernel spells out its instruction sequence, and the sum kernels share their loop by design of the register-versus-memory comparison",
}

// TestNoDuplicatedBlocks fails on any run of dupWindow tokens that
// appears twice in the non-test Go under internal/ and cmd/, unless
// dupAllowlist exempts it with a reason. Comments and import declarations
// are not tokens of the scan. It also fails on allowlist lines that give
// no reason or exempt no duplicate. Copied logic must agree forever, and
// one copy is the way to make it.
func TestNoDuplicatedBlocks(t *testing.T) {
	runs, used, err := duplicatedBlocks(".", []string{"internal", "cmd"}, dupWindow, dupAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		t.Errorf("%s: duplicates %s; fold the copies into one, or add an allowlist line with the reason both stay", r, r.copyOf)
	}
	for file, reason := range dupAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist line %s gives no reason", file)
		}
		if !used[file] {
			t.Errorf("allowlist line %s exempts no duplicated block; remove it", file)
		}
	}
}

// TestDuplicatedBlocksFixture checks that the scan flags a copy across
// files and a copy within one file, including one that differs only in
// its comments, passes over shared import blocks and an allowlisted
// file's copies, and reports an allowlist line that exempts nothing.
func TestDuplicatedBlocksFixture(t *testing.T) {
	dir := t.TempDir()
	// body is a function long enough for the fixture's 20-token window;
	// the variable name x keeps the fixture's groups of copies apart.
	body := func(name, x string) string {
		return "func " + name + "(" + x + "s []int) int {\n\ts := 0\n\tfor i, " + x + " := range " + x + "s {\n\t\tif " + x + " > i {\n\t\t\ts += " + x + " * i\n\t\t}\n\t}\n\treturn s\n}\n"
	}
	imports := "import (\n\t\"bytes\"\n\t\"errors\"\n\t\"fmt\"\n\t\"io\"\n\t\"os\"\n\t\"sort\"\n\t\"strconv\"\n\t\"strings\"\n)\n\n"
	files := map[string]string{
		// A copy across files.
		"cross/a.go": "package cross\n\n" + body("A", "a"),
		"cross/b.go": "package cross\n\n" + body("B", "a"),
		// A copy within one file, the second with comments added.
		"within/w.go": "package within\n\n" + body("W1", "w") + "\n" +
			strings.Replace(body("W2", "w"), "\ts := 0\n", "\t// running sum\n\ts := 0 /* start */\n", 1),
		// The same import block twice, and distinct code otherwise.
		"imp/p.go": "package imp\n\n" + imports + "func P() int { return len(fmt.Sprint(os.Args, sort.IntsAreSorted(nil), strings.ToUpper(\"p\"))) }\n",
		"imp/q.go": "package imp\n\n" + imports + "func Q() string { return strconv.Itoa(1) + string(bytes.ToLower([]byte(\"Q\"))) }\n",
		// Copies the allowlist exempts.
		"ok/k.go": "package ok\n\n" + body("K1", "k") + body("K2", "k"),
		// Unique code under a stale allowlist line.
		"stale/s.go": "package stale\n\nfunc S() {}\n",
		// A test file is out of scope.
		"cross/a_test.go": "package cross\n\n" + body("T", "a"),
	}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{"ok/k.go": "fixture", "stale/s.go": "fixture"}
	runs, used, err := duplicatedBlocks(dir, []string{"cross", "within", "imp", "ok", "stale"}, 20, allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range runs {
		got = append(got, r.String()+" ~ "+r.copyOf)
	}
	want := []string{
		"cross/a.go:3-11 ~ cross/b.go:3",
		"cross/b.go:3-11 ~ cross/a.go:3",
		"within/w.go:3-11 ~ within/w.go:13",
		"within/w.go:13-22 ~ within/w.go:3",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("runs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !used["ok/k.go"] || used["stale/s.go"] {
		t.Errorf("used = %v, want ok/k.go only", used)
	}
}

// dupRun is one maximal stretch of a file covered by duplicated windows.
type dupRun struct {
	file        string
	first, last int    // lines of the stretch
	copyOf      string // "file:line" where a copy of its first window starts
}

func (r dupRun) String() string { return fmt.Sprintf("%s:%d-%d", r.file, r.first, r.last) }

type dupToken struct {
	file int
	line int
}

// duplicatedBlocks scans the non-test Go files under each of dirs (paths
// relative to root) and returns every stretch of code covered by a window
// of `window` tokens that occurs more than once, sorted by file and line,
// together with the allowlisted files that exempted at least one window.
// Comments, import declarations and automatic semicolons' newlines are
// not compared: a copy that differs only in them is still a copy.
func duplicatedBlocks(root string, dirs []string, window int, allow map[string]string) ([]dupRun, map[string]bool, error) {
	var files []string
	var toks [][]int32 // per file: interned token texts
	var lines [][]int  // per file: each token's line
	intern := map[string]int32{}
	for _, d := range dirs {
		err := filepath.WalkDir(filepath.Join(root, d), func(p string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if n := e.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			ids, ls, err := scanTokens(src, intern)
			if err != nil {
				return fmt.Errorf("%s: %w", rel, err)
			}
			files = append(files, filepath.ToSlash(rel))
			toks = append(toks, ids)
			lines = append(lines, ls)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	// Bucket every window by a polynomial hash; equal windows share a
	// bucket, and a bucket's windows are compared token by token.
	const base = 1_000_003
	pow := uint64(1)
	for i := 0; i < window; i++ {
		pow *= base
	}
	buckets := map[uint64][]dupToken{}
	for f, ids := range toks {
		var h uint64
		for i, id := range ids {
			h = h*base + uint64(id) + 1
			if i >= window {
				h -= (uint64(ids[i-window]) + 1) * pow
			}
			if i >= window-1 {
				buckets[h] = append(buckets[h], dupToken{file: f, line: i - window + 1})
			}
		}
	}
	same := func(a, b dupToken) bool {
		x, y := toks[a.file][a.line:a.line+window], toks[b.file][b.line:b.line+window]
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	covered := make([][]bool, len(files))
	copyOf := make([][]string, len(files)) // at a window's start: where another copy starts
	used := map[string]bool{}
	for _, occ := range buckets {
		for len(occ) > 1 {
			var group, rest []dupToken
			for _, o := range occ {
				if same(o, occ[0]) {
					group = append(group, o)
				} else {
					rest = append(rest, o)
				}
			}
			occ = rest
			if len(group) < 2 {
				continue
			}
			oneFile := true
			for _, o := range group {
				oneFile = oneFile && o.file == group[0].file
			}
			if f := files[group[0].file]; oneFile && allow[f] != "" {
				used[f] = true
				continue
			}
			for i, o := range group {
				if covered[o.file] == nil {
					covered[o.file] = make([]bool, len(toks[o.file]))
					copyOf[o.file] = make([]string, len(toks[o.file]))
				}
				for k := o.line; k < o.line+window; k++ {
					covered[o.file][k] = true
				}
				other := group[(i+1)%len(group)]
				copyOf[o.file][o.line] = fmt.Sprintf("%s:%d", files[other.file], lines[other.file][other.line])
			}
		}
	}
	var runs []dupRun
	for f, cov := range covered {
		for i := 0; i < len(cov); {
			if !cov[i] {
				i++
				continue
			}
			j := i
			for j < len(cov) && cov[j] {
				j++
			}
			runs = append(runs, dupRun{file: files[f], first: lines[f][i], last: lines[f][j-1], copyOf: copyOf[f][i]})
			i = j
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].file != runs[j].file {
			return runs[i].file < runs[j].file
		}
		return runs[i].first < runs[j].first
	})
	return runs, used, nil
}

// scanTokens returns the interned text and line of every token of a Go
// source file, without comments and import declarations.
func scanTokens(src []byte, intern map[string]int32) ([]int32, []int, error) {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var errs scanner.ErrorList
	var s scanner.Scanner
	s.Init(file, src, func(pos token.Position, msg string) { errs.Add(pos, msg) }, 0)
	var ids []int32
	var ls []int
	depth := -1 // paren depth inside an import declaration, -1 outside one
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		switch {
		case tok == token.IMPORT:
			depth = 0
			continue
		case depth >= 0:
			switch tok {
			case token.LPAREN:
				depth++
			case token.RPAREN:
				depth--
			case token.SEMICOLON:
				if depth == 0 {
					depth = -1
				}
			}
			continue
		}
		text := tok.String()
		if tok.IsLiteral() {
			text = lit
		}
		id, ok := intern[text]
		if !ok {
			id = int32(len(intern))
			intern[text] = id
		}
		ids = append(ids, id)
		ls = append(ls, file.Line(pos))
	}
	return ids, ls, errs.Err()
}
