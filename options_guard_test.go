package repro

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unsetOptionsAllowlist names the option fields that stay although no
// non-test code both sets and reads them, each with its reason. Keys are
// "<import path>.<Type>.<Field>".
var unsetOptionsAllowlist = map[string]string{
	"repro/internal/bdd.ReorderPolicy.Threshold":  "the identity test's sift64 case is the only test that sifts while small circuits are being built",
	"repro/internal/server.Config.Clock":          "tests inject a fake clock through it",
	"repro/internal/core.Context.ExtraPasses":     "tests and root benchmarks inject passes through it",
	"repro/internal/core.Context.IncrMaxConeFrac": "ROADMAP item 12 deletes it with incremental re-estimation; bench/lpbench reads it",
	"repro/internal/core.Context.InputProb":       "never set, and bench/lpbench reads it; ROADMAP items 6 and 8",
}

// TestNoUnsetOptions fails on any exported field of an option struct in
// the root module or the bench module that no non-test code both sets
// and reads, unless unsetOptionsAllowlist names it with a reason. Option
// structs are the struct types named *Options, *Policy or *Config, plus
// core.Context and power.Spec. It also fails on allowlist lines that
// give no reason or no longer name such a field. A field nothing sets
// has one value; it belongs in a constant.
func TestNoUnsetOptions(t *testing.T) {
	found, err := unsetOptions(".", "repro", "repro/internal/core.Context", "repro/internal/power.Spec")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.key] = true
		if _, ok := unsetOptionsAllowlist[f.key]; !ok {
			t.Errorf("%s: %s is %s; fold it into a constant, or add an allowlist line with the reason it stays", f.pos, f.key, f.why)
		}
	}
	for key, reason := range unsetOptionsAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist line %s gives no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist line %s names no unset option; remove it", key)
		}
	}
}

// TestUnsetOptionsFixture checks that the scan flags a field nothing
// sets, a field only a default fill sets and a field nothing reads, and
// passes over fields set from another package, by a constructor, through
// a pointer and through a promoted field.
func TestUnsetOptionsFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"a/a.go": `package a

type Options struct {
	Unset     int
	Filled    int
	WriteOnly int
	FromB     int
	ByCtor    int
	ByFlag    int
	Inner
}

type Inner struct{ Promoted int }

type Spec struct{ Mode int }

type other struct{ Unset int }

func New() *Options { return &Options{ByCtor: 2} }

func Run(opts Options, s Spec) int {
	if opts.Filled <= 0 {
		opts.Filled = 8
	}
	var o other
	o.Unset = 1
	return opts.Unset + opts.Filled + opts.FromB + opts.ByCtor + opts.ByFlag + opts.Promoted + s.Mode + o.Unset
}
`,
		"a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { _ = Run(Options{Unset: 1}, Spec{}) }
`,
		"b/b.go": `package b

import (
	"flag"

	"fix/a"
)

func main() {
	o := a.New()
	o.FromB = 1
	o.Promoted = 4
	flag.IntVar(&o.ByFlag, "n", 0, "")
	_ = a.Run(a.Options{WriteOnly: 3}, a.Spec{Mode: 1})
	_ = a.Run(*o, a.Spec{})
}
`,
	}
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, err := unsetOptions(dir, "fix", "fix/a.Spec")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.key+": "+f.why)
	}
	want := []string{
		"fix/a.Options.Filled: set only by a default fill",
		"fix/a.Options.Unset: never set",
		"fix/a.Options.WriteOnly: never read",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("unset options:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

type unsetOption struct {
	key string // "<import path>.<Type>.<Field>"
	pos string // file:line of the field
	why string // "never set", "set only by a default fill" or "never read"
}

// unsetOptions parses every non-test Go file under root, where root
// holds module `module` (nested modules like bench included), and
// returns the exported fields of its option structs that no non-test
// code both sets and reads, sorted by key. Option structs are the struct
// types named *Options, *Policy or *Config, plus the types extra names as
// "<import path>.<Type>".
//
// A field is set by a composite literal key, an assignment or increment,
// or a taken address (flag.IntVar(&cfg.N, ...)), and read by any other
// selection. A set counts only from another package, or from a function
// of the field's own package that returns the type (a constructor); an
// assignment inside an if whose condition selects the same field name is
// a default fill and never counts. The scan is syntactic: a selection's
// owner is resolved through declared parameter, variable, field and
// function result types, and when it cannot be resolved the selection
// counts for every option field of that name.
func unsetOptions(root, module string, extra ...string) ([]unsetOption, error) {
	fset := token.NewFileSet()
	var files []optFile
	err := walkModule(fset, root, module, true, func(pkg string, imports map[string]string, f *ast.File) error {
		files = append(files, optFile{pkg, imports, f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	ix := indexOptions(files, extra)
	uses := map[string]*optUses{}
	for _, fl := range files {
		for _, dl := range fl.f.Decls {
			d := &declScan{ix: ix, fl: fl, uses: uses, scope: map[string]string{}, returns: map[string]bool{}, fills: map[*ast.AssignStmt]bool{}}
			var body ast.Node = dl
			if fd, ok := dl.(*ast.FuncDecl); ok {
				if fd.Body == nil {
					continue
				}
				d.declareFields(fd.Recv)
				d.declareFields(fd.Type.Params)
				d.declareFields(fd.Type.Results)
				if fd.Type.Results != nil {
					for _, r := range fd.Type.Results.List {
						d.returns[typeKey(r.Type, fl.pkg, fl.imports)] = true
					}
				}
				body = fd.Body
			}
			// Declarations first, so that every use resolves against all
			// of the declaration's names.
			ast.Inspect(body, d.declare)
			ast.Inspect(body, d.visit)
		}
	}

	var out []unsetOption
	for tk, o := range ix.structs {
		if !o.checked {
			continue
		}
		for _, n := range o.exported {
			u := uses[tk+"."+n]
			if u == nil {
				u = &optUses{}
			}
			var why string
			switch {
			case !u.set && u.fill:
				why = "set only by a default fill"
			case !u.set:
				why = "never set"
			case !u.read:
				why = "never read"
			default:
				continue
			}
			out = append(out, unsetOption{key: tk + "." + n, pos: fset.Position(o.pos[n]).String(), why: why})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// optFile is one parsed non-test file with its package and imports.
type optFile struct {
	pkg     string
	imports map[string]string
	f       *ast.File
}

// optStruct is a named struct type of the scanned tree. Type keys are
// "<import path>.<Type>"; field keys are "<type key>.<Field>".
type optStruct struct {
	checked  bool              // an option struct the scan reports on
	fields   map[string]string // field name -> type key of its type, or ""
	embedded []string          // names of embedded fields
	exported []string          // exported field names, in order
	pos      map[string]token.Pos
}

// optIndex holds what the scan knows of the tree's declarations.
type optIndex struct {
	structs map[string]*optStruct
	results map[string]string   // "<pkg>.<Func>" or "<type key>.<Method>" -> first result's type key
	byName  map[string][]string // field name -> field keys of option structs
}

// maxEmbedDepth bounds the embeddings a promoted-field lookup follows,
// so that types embedding each other through pointers end the search.
const maxEmbedDepth = 4

// optUses records what non-test code does with a field.
type optUses struct{ set, fill, read bool }

// indexOptions indexes the named struct types of files and the first
// result type of every function and method.
func indexOptions(files []optFile, extra []string) *optIndex {
	ix := &optIndex{structs: map[string]*optStruct{}, results: map[string]string{}, byName: map[string][]string{}}
	isExtra := map[string]bool{}
	for _, e := range extra {
		isExtra[e] = true
	}
	for _, fl := range files {
		for _, dl := range fl.f.Decls {
			if d, ok := dl.(*ast.FuncDecl); ok {
				key := fl.pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = fl.pkg + "." + recvTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				if d.Type.Results != nil {
					ix.results[key] = typeKey(d.Type.Results.List[0].Type, fl.pkg, fl.imports)
				}
				continue
			}
			ast.Inspect(dl, func(n ast.Node) bool {
				s, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					return false
				}
				name := s.Name.Name
				key := fl.pkg + "." + name
				o := &optStruct{
					checked: isExtra[key] || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy") || strings.HasSuffix(name, "Config"),
					fields:  map[string]string{},
					pos:     map[string]token.Pos{},
				}
				for _, f := range st.Fields.List {
					tk := typeKey(f.Type, fl.pkg, fl.imports)
					names := f.Names
					if len(names) == 0 {
						names = []*ast.Ident{{NamePos: f.Type.Pos(), Name: tk[strings.LastIndex(tk, ".")+1:]}}
						o.embedded = append(o.embedded, names[0].Name)
					}
					for _, id := range names {
						o.fields[id.Name] = tk
						o.pos[id.Name] = id.Pos()
						if id.IsExported() {
							o.exported = append(o.exported, id.Name)
							if o.checked {
								ix.byName[id.Name] = append(ix.byName[id.Name], key+"."+id.Name)
							}
						}
					}
				}
				ix.structs[key] = o
				return false
			})
		}
	}
	return ix
}

// lookup returns the field keys that selecting name from a value of type
// tk names: the field itself, then each embedded field it is promoted
// through, at most depth embeddings deep; nil when tk is no struct of the
// tree or has no such field.
func (ix *optIndex) lookup(tk, name string, depth int) []string {
	o := ix.structs[tk]
	if o == nil || depth < 0 {
		return nil
	}
	if _, ok := o.fields[name]; ok {
		return []string{tk + "." + name}
	}
	for _, e := range o.embedded {
		if sub := ix.lookup(o.fields[e], name, depth-1); sub != nil {
			return append(sub, tk+"."+e)
		}
	}
	return nil
}

// declScan scans one top-level declaration of a file.
type declScan struct {
	ix   *optIndex
	fl   optFile
	uses map[string]*optUses
	// scope maps a local name to its type key; "?" marks a name declared
	// with two different types.
	scope   map[string]string
	returns map[string]bool          // type keys the enclosing function returns
	fills   map[*ast.AssignStmt]bool // default fills
}

// pkgName returns the import path a selector base names when it is a
// package, not a local value.
func (d *declScan) pkgName(x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, local := d.scope[id.Name]; local {
		return "", false
	}
	ip := d.fl.imports[id.Name]
	return ip, ip != ""
}

// typeOf returns the type key of an expression's named type, or "".
func (d *declScan) typeOf(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return d.scope[x.Name]
	case *ast.ParenExpr:
		return d.typeOf(x.X)
	case *ast.StarExpr:
		return d.typeOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return d.typeOf(x.X)
		}
	case *ast.CompositeLit:
		return typeKey(x.Type, d.fl.pkg, d.fl.imports)
	case *ast.SelectorExpr:
		if _, ok := d.pkgName(x.X); ok {
			return ""
		}
		if keys := d.ix.lookup(d.typeOf(x.X), x.Sel.Name, maxEmbedDepth); keys != nil {
			owner := keys[0][:strings.LastIndex(keys[0], ".")]
			return d.ix.structs[owner].fields[x.Sel.Name]
		}
	case *ast.CallExpr:
		switch fn := x.Fun.(type) {
		case *ast.Ident:
			if d.ix.structs[d.fl.pkg+"."+fn.Name] != nil {
				return d.fl.pkg + "." + fn.Name // a conversion
			}
			return d.ix.results[d.fl.pkg+"."+fn.Name]
		case *ast.SelectorExpr:
			if ip, ok := d.pkgName(fn.X); ok {
				return d.ix.results[ip+"."+fn.Sel.Name]
			}
			return d.ix.results[d.typeOf(fn.X)+"."+fn.Sel.Name]
		}
	}
	return ""
}

func (d *declScan) bind(name, tk string) {
	if name == "_" {
		return
	}
	if old, ok := d.scope[name]; ok && old != tk {
		tk = "?"
	}
	d.scope[name] = tk
}

func (d *declScan) declareFields(list *ast.FieldList) {
	if list == nil {
		return
	}
	for _, f := range list.List {
		for _, id := range f.Names {
			d.bind(id.Name, typeKey(f.Type, d.fl.pkg, d.fl.imports))
		}
	}
}

// declare records the local names a node declares and the default
// fills an if statement holds: assignments in its body to a field whose
// name its condition selects.
func (d *declScan) declare(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FuncLit:
		d.declareFields(x.Type.Params)
		d.declareFields(x.Type.Results)
	case *ast.AssignStmt:
		if x.Tok != token.DEFINE {
			break
		}
		for i, l := range x.Lhs {
			id, ok := l.(*ast.Ident)
			switch {
			case !ok:
			case len(x.Rhs) == len(x.Lhs):
				d.bind(id.Name, d.typeOf(x.Rhs[i]))
			case i == 0:
				d.bind(id.Name, d.typeOf(x.Rhs[0]))
			default:
				d.bind(id.Name, "")
			}
		}
	case *ast.ValueSpec:
		for i, id := range x.Names {
			switch {
			case x.Type != nil:
				d.bind(id.Name, typeKey(x.Type, d.fl.pkg, d.fl.imports))
			case i < len(x.Values):
				d.bind(id.Name, d.typeOf(x.Values[i]))
			}
		}
	case *ast.RangeStmt:
		if x.Tok == token.DEFINE {
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok {
					d.bind(id.Name, "")
				}
			}
		}
	case *ast.IfStmt:
		tested := map[string]bool{}
		ast.Inspect(x.Cond, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok {
				tested[s.Sel.Name] = true
			}
			return true
		})
		for _, st := range x.Body.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if s, ok := as.Lhs[0].(*ast.SelectorExpr); ok && tested[s.Sel.Name] {
					d.fills[as] = true
				}
			}
		}
	}
	return true
}

// owners returns the option field keys a selection may name.
func (d *declScan) owners(sel *ast.SelectorExpr) []string {
	if _, ok := d.pkgName(sel.X); ok {
		return nil // a package-qualified name, not a field
	}
	tk := d.typeOf(sel.X)
	if d.ix.structs[tk] == nil {
		return d.ix.byName[sel.Sel.Name]
	}
	return d.ix.lookup(tk, sel.Sel.Name, maxEmbedDepth)
}

func (d *declScan) use(key string) *optUses {
	if d.uses[key] == nil {
		d.uses[key] = &optUses{}
	}
	return d.uses[key]
}

// set records a set of the field key, counting it only from another
// package or from a constructor of the field's type.
func (d *declScan) set(key string, fill bool) {
	tk := key[:strings.LastIndex(key, ".")]
	switch {
	case fill:
		d.use(key).fill = true
	case tk[:strings.LastIndex(tk, ".")] != d.fl.pkg || d.returns[tk]:
		d.use(key).set = true
	}
}

// setChain records every selection along an assigned or address-taken
// selector chain (cfg.Budget.MaxNodes) as set, and returns the
// expressions left to scan for reads.
func (d *declScan) setChain(e ast.Expr, fill bool) []ast.Expr {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return d.setChain(x.X, fill)
	case *ast.StarExpr:
		return d.setChain(x.X, fill)
	case *ast.SelectorExpr:
		for _, k := range d.owners(x) {
			d.set(k, fill)
		}
		return d.setChain(x.X, fill)
	case *ast.IndexExpr:
		return append(d.setChain(x.X, fill), x.Index)
	}
	return []ast.Expr{e}
}

// visit records the sets and reads of option fields under n.
func (d *declScan) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.AssignStmt:
		if x.Tok == token.DEFINE {
			break
		}
		for _, l := range x.Lhs {
			for _, rest := range d.setChain(l, d.fills[x]) {
				ast.Inspect(rest, d.visit)
			}
		}
		for _, r := range x.Rhs {
			ast.Inspect(r, d.visit)
		}
		return false
	case *ast.IncDecStmt:
		d.setChain(x.X, false)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			d.setChain(x.X, false)
		}
	case *ast.SelectorExpr:
		for _, k := range d.owners(x) {
			d.use(k).read = true
		}
	case *ast.CompositeLit:
		tk := typeKey(x.Type, d.fl.pkg, d.fl.imports)
		o := d.ix.structs[tk]
		if o == nil {
			break
		}
		for _, e := range x.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					d.set(tk+"."+id.Name, false)
				}
				e = kv.Value
			} else {
				for _, n := range o.exported { // a positional literal sets every field
					d.set(tk+"."+n, false)
				}
			}
			ast.Inspect(e, d.visit)
		}
		return false
	}
	return true
}

// typeKey returns "<import path>.<Type>" for a type expression naming a
// type (through any pointer), as written in package pkg with imports,
// and "" for any other type.
func typeKey(e ast.Expr, pkg string, imports map[string]string) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeKey(x.X, pkg, imports)
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
			return imports[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}
