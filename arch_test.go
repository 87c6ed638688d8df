package sensei_test

// The repository's structural rules, checked on the type-checked source of
// every package in the module: every export has a caller that is not a
// test (TestEveryExportHasACaller), and the layering rules of
// TestArchitectureRules. Only the standard library is used: `go list`
// names the packages and the standard library's export data, go/parser and
// go/types read the module's own non-test files.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exports that may stay without a non-test
// caller, each with its reason. An entry that stops being needed fails the
// test, so the list only shrinks.
var exportAllowlist = map[string]string{
	"internal/abr.LoadPolicy":             "reads a trained Pensieve policy back; its product caller comes when the lab serves committed policies (ROADMAP 18b)",
	"internal/abr.(*Pensieve).SavePolicy": "writes the policy LoadPolicy reads; the same pending caller (ROADMAP 18b)",
	"internal/chaos.(*Policy).Replay":     "the oracle that tests in chaos, origin and fleet hold the injector's journal against",
	"internal/sensitivity.NewScript":      "the scripted Source that test files in dash, fleet, player and sensitivity share",
}

// TestEveryExportHasACaller fails on an exported package-level func, type,
// var or const, an exported method, or an exported field without a struct
// tag, declared in a non-test file, that meets none of these conditions:
// a non-test file of the module uses it; it is a method that satisfies an
// interface some value of its type is converted to (standard-library
// interfaces included); it is on exportAllowlist. Tagged fields are read by
// reflection (encoding/json), so the rule leaves them alone.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadArchModule(t, ".")
	hits := m.uncalledExports()
	for _, h := range hits {
		if _, ok := exportAllowlist[h]; !ok {
			t.Errorf("%s: exported, but no non-test file uses it", h)
		}
	}
	for name := range exportAllowlist {
		if !slices.Contains(hits, name) {
			t.Errorf("%s: on the allowlist but has a non-test caller (or is gone); delete its entry", name)
		}
	}
}

// TestExportRuleCases runs the rule over testdata/archmod, a module holding
// one case each: an export nothing uses and one only a _test.go file calls
// (both must be reported), a heap whose methods only container/heap calls
// through heap.Interface, and a field only encoding/json reads (both must
// pass).
func TestExportRuleCases(t *testing.T) {
	m := loadArchModule(t, filepath.Join("testdata", "archmod"))
	got := m.uncalledExports()
	want := []string{"a.TestOnly", "a.Unused"}
	if !slices.Equal(got, want) {
		t.Fatalf("hits = %q, want %q", got, want)
	}
}

// TestArchitectureRules holds the layering rules of the module, one row
// each, on resolved imports and objects rather than on source text.
func TestArchitectureRules(t *testing.T) {
	m := loadArchModule(t, ".")
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(m) {
				t.Error(v)
			}
		})
	}
}

var archRules = []struct {
	name  string
	check func(m *archModule) []string
}{
	{
		// Requests and replies are encoded and parsed by internal/wire's
		// AppendJSON and Parse, and manifests by AppendMPD and Parse, not by
		// reflection. weightservice.go keeps encoding/json for the weight
		// files the origin reads at boot.
		name: "control-plane bodies and manifests skip encoding/json and encoding/xml",
		check: func(m *archModule) []string {
			out := m.imports([]string{"internal/dash"}, "encoding/json")
			for _, f := range m.files("internal/origin") {
				if filepath.Base(f.name) == "weightservice.go" {
					continue
				}
				out = append(out, f.uses(m, func(o types.Object) bool {
					return isFunc(o, "encoding/json", "NewDecoder", "Unmarshal")
				})...)
			}
			for _, f := range m.files("internal/dash", "internal/wire", "internal/origin") {
				out = append(out, f.uses(m, func(o types.Object) bool {
					return isFunc(o, "encoding/xml", "Unmarshal", "NewDecoder") ||
						isFunc(o, "encoding/xml") && strings.HasPrefix(o.Name(), "Marshal")
				})...)
			}
			return out
		},
	},
	{
		// The fleet reaches its backend through wire.Caller and reads
		// /stats with a typed call; no production code answers a request
		// into an httptest recorder.
		name: "HTTP stays at the process edge",
		check: func(m *archModule) []string {
			out := m.imports([]string{"internal/fleet"}, "net/http")
			return append(out, m.imports([]string{"internal/", "cmd/"}, "net/http/httptest")...)
		},
	},
	{
		// fleet.Run runs on virtual time only; the wall clock belongs to
		// dashserver, dashclient and the e2e suites over TCP.
		name: "the fleet never builds a wall clock",
		check: func(m *archModule) []string {
			var out []string
			for _, f := range m.files("internal/fleet") {
				out = append(out, f.uses(m, func(o types.Object) bool {
					return isFunc(o, "sensei/internal/vclock", "NewReal")
				})...)
			}
			return out
		},
	},
	{
		// Enter/Exit bracket a participant of a vclock.Virtual. The
		// registrants are fleet sessions, the fleet's refresh watcher and
		// the autopilot's queued jobs; the origin and the CLIs never
		// register. bench/ composes traced fleets by hand and is exempt.
		name: "only the fleet and ingest register with the virtual clock",
		check: func(m *archModule) []string {
			var out []string
			for _, f := range m.files("") {
				if hasPrefix(f.pkg.rel, "internal/fleet", "internal/ingest", "internal/vclock", "bench") {
					continue
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 0 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Enter" && sel.Sel.Name != "Exit" {
						return true
					}
					if s := f.pkg.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
						out = append(out, fmt.Sprintf("%s: calls %s()", m.where(sel.Pos()), sel.Sel.Name))
					}
					return true
				})
			}
			return out
		},
	},
	{
		// internal/wire is the protocol both sides share; the serving
		// plane reaches it without linking the streaming client.
		name: "origin and router do not import the client",
		check: func(m *archModule) []string {
			var out []string
			for _, rel := range []string{"internal/origin", "internal/router"} {
				if dependsOn(m.pkgs[rel].types, "sensei/internal/dash", map[*types.Package]bool{}) {
					out = append(out, rel+" depends on sensei/internal/dash")
				}
			}
			return out
		},
	},
}

// archModule is every package of one module, type-checked from its
// non-test files only.
type archModule struct {
	path string // module path
	dir  string // module root
	fset *token.FileSet
	pkgs map[string]*archPkg // by path relative to the module ("" for the root)
	rels []string            // sorted keys of pkgs
}

type archPkg struct {
	rel   string
	files []archFile
	types *types.Package
	info  *types.Info
}

type archFile struct {
	name string
	ast  *ast.File
	pkg  *archPkg
}

var archCache sync.Map // dir → *archModule

// loadArchModule type-checks every package of the module rooted at dir.
// `go list` names the packages and the export data of the standard
// library they import; the module's own packages are checked from source,
// test files left out.
func loadArchModule(t *testing.T, dir string) *archModule {
	t.Helper()
	if m, ok := archCache.Load(dir); ok {
		return m.(*archModule)
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Standard}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \",\"}}\t{{with .Module}}{{.Path}}{{end}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &archModule{dir: root, fset: token.NewFileSet(), pkgs: map[string]*archPkg{}}
	exports := map[string]string{}
	srcs := map[string][]string{} // import path → non-test files
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if f[1] == "true" {
			exports[f[0]] = f[2]
			continue
		}
		m.path = f[5]
		for _, name := range strings.Split(f[4], ",") {
			srcs[f[0]] = append(srcs[f[0]], filepath.Join(f[3], name))
		}
	}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		rel, ok := m.rel(path)
		if !ok {
			return std.Import(path)
		}
		if p := m.pkgs[rel]; p != nil {
			return p.types, nil
		}
		p := &archPkg{rel: rel, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}}
		var files []*ast.File
		for _, name := range srcs[path] {
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			p.files = append(p.files, archFile{name: name, ast: f, pkg: p})
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tp, err := conf.Check(path, m.fset, files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		m.pkgs[rel] = p
		return tp, nil
	}
	for path := range srcs {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	for rel := range m.pkgs {
		m.rels = append(m.rels, rel)
	}
	slices.Sort(m.rels)
	archCache.Store(dir, m)
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// rel returns path relative to the module, and whether it is in the module.
func (m *archModule) rel(path string) (string, bool) {
	if path == m.path {
		return "", true
	}
	rel, ok := strings.CutPrefix(path, m.path+"/")
	return rel, ok
}

// where names p's file relative to the module root, with line and column.
func (m *archModule) where(p token.Pos) string {
	pos := m.fset.Position(p)
	if rel, err := filepath.Rel(m.dir, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return pos.String()
}

// files returns the non-test files of the packages under the given
// relative paths ("" is every package).
func (m *archModule) files(under ...string) []archFile {
	var out []archFile
	for _, rel := range m.rels {
		if hasPrefix(rel, under...) {
			out = append(out, m.pkgs[rel].files...)
		}
	}
	return out
}

// imports reports each non-test file under the given paths that imports
// path.
func (m *archModule) imports(under []string, path string) []string {
	var out []string
	for _, f := range m.files(under...) {
		for _, spec := range f.ast.Imports {
			if spec.Path.Value == `"`+path+`"` {
				out = append(out, fmt.Sprintf("%s: imports %s", m.where(spec.Pos()), path))
			}
		}
	}
	return out
}

// uses reports each identifier of f that resolves to an object match
// accepts.
func (f archFile) uses(m *archModule, match func(types.Object) bool) []string {
	var out []string
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := f.pkg.info.Uses[id]; o != nil && match(o) {
				out = append(out, fmt.Sprintf("%s: uses %s.%s", m.where(id.Pos()), o.Pkg().Path(), o.Name()))
			}
		}
		return true
	})
	return out
}

// isFunc reports whether o is a package-level func of pkg named one of
// names (any name if none are given).
func isFunc(o types.Object, pkg string, names ...string) bool {
	fn, ok := o.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return len(names) == 0 || slices.Contains(names, fn.Name())
}

func hasPrefix(rel string, prefixes ...string) bool {
	for _, p := range prefixes {
		if p == "" || rel == p || strings.HasPrefix(rel, strings.TrimSuffix(p, "/")+"/") {
			return true
		}
	}
	return false
}

func dependsOn(p *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[p] {
		return false
	}
	seen[p] = true
	for _, q := range p.Imports() {
		if q.Path() == path || dependsOn(q, path, seen) {
			return true
		}
	}
	return false
}

// uncalledExports returns, sorted, the name of every export the rule
// reports: no non-test use and no interface conversion that reaches it.
func (m *archModule) uncalledExports() []string {
	sc := &exportScan{used: map[types.Object]bool{}, boxed: map[string]types.Type{}, asserted: map[string]*types.Interface{}}
	for _, rel := range m.rels {
		p := m.pkgs[rel]
		for _, f := range p.files {
			sc.uses(p.info, f.ast)
			sc.conversions(p.info, f.ast)
		}
		for id, inst := range p.info.Instances {
			sc.instance(p.info.Uses[id], inst)
		}
	}
	// A type assertion to an interface reaches the methods of every type
	// boxed in some interface value that implements it.
	for _, T := range sc.boxed {
		for _, iface := range sc.asserted {
			if types.Implements(T, iface) {
				sc.convert(iface, T)
			}
		}
	}
	var hits []string
	report := func(o types.Object, name string) {
		if o.Exported() && !sc.used[o] {
			hits = append(hits, name)
		}
	}
	for _, rel := range m.rels {
		p := m.pkgs[rel]
		prefix := p.types.Name()
		if rel != "" {
			prefix = rel
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			report(o, prefix+"."+name)
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				fn := named.Method(i)
				recv := name
				if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + name + ")"
				}
				report(fn, prefix+"."+recv+"."+fn.Name())
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := range u.NumFields() {
					if u.Tag(i) == "" {
						report(u.Field(i), prefix+"."+name+"."+u.Field(i).Name())
					}
				}
			case *types.Interface:
				for i := range u.NumExplicitMethods() {
					report(u.ExplicitMethod(i), prefix+"."+name+"."+u.ExplicitMethod(i).Name())
				}
			}
		}
	}
	slices.Sort(hits)
	return hits
}

// exportScan gathers what the module's non-test files use.
type exportScan struct {
	used     map[types.Object]bool
	boxed    map[string]types.Type       // concrete types converted to an interface
	asserted map[string]*types.Interface // interfaces a type assertion or switch tests for
}

// uses marks every object an identifier of f refers to, except a
// declaration's references to itself: a function's recursion, a type's
// mentions in its own declaration and in its own methods.
func (sc *exportScan) uses(info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		var self []types.Object
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self = append(self, info.Defs[d.Name])
			if d.Recv != nil {
				if named := receiverNamed(info.Defs[d.Name]); named != nil {
					self = append(self, named.Obj())
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					self = append(self, info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self = append(self, info.Defs[n])
					}
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := info.Uses[n]; o != nil && !slices.Contains(self, o) {
					sc.mark(o)
				}
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil {
					sc.markPath(s.Recv(), s.Index())
				}
			case *ast.CompositeLit:
				// An unkeyed struct literal sets every field.
				if st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range st.NumFields() {
							sc.mark(st.Field(i))
						}
					}
				}
			}
			return true
		})
	}
}

func receiverNamed(o types.Object) *types.Named {
	fn, ok := o.(*types.Func)
	if !ok {
		return nil
	}
	named, _ := deref(fn.Type().(*types.Signature).Recv().Type()).(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

func (sc *exportScan) mark(o types.Object) {
	switch o := o.(type) {
	case *types.Func:
		sc.used[o.Origin()] = true
	case *types.Var:
		sc.used[o.Origin()] = true
	default:
		sc.used[o] = true
	}
}

// markPath marks the embedded fields a promoted field or method is reached
// through: index is a path from T as types.Selection and
// types.LookupFieldOrMethod give it.
func (sc *exportScan) markPath(T types.Type, index []int) {
	for _, i := range index[:max(len(index)-1, 0)] {
		st, ok := deref(T).Underlying().(*types.Struct)
		if !ok {
			return
		}
		sc.mark(st.Field(i))
		T = st.Field(i).Type()
	}
}

func deref(T types.Type) types.Type {
	if p, ok := T.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return T
}

// conversions marks the methods through which a value of a concrete type
// may be called once f converts it to an interface: by a conversion, an
// assignment, a call argument, a return, a composite literal element or a
// channel send. It also records the interfaces f asserts values to.
func (sc *exportScan) conversions(info *types.Info, f *ast.File) {
	conv := func(dst types.Type, src ast.Expr) { sc.convert(dst, info.TypeOf(src)) }
	assert := func(T types.Type) {
		if iface, ok := T.Underlying().(*types.Interface); ok {
			sc.asserted[types.TypeString(T, nil)] = iface
		}
	}
	var results []*types.Tuple // enclosing functions' results, innermost last
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				results = results[:len(results)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			results = append(results, info.Defs[n.Name].Type().(*types.Signature).Results())
		case *ast.FuncLit:
			results = append(results, info.TypeOf(n).(*types.Signature).Results())
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(info.TypeOf(n.Type))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if tv := info.Types[e]; tv.IsType() {
						assert(tv.Type)
					}
				}
			}
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					conv(tv.Type, n.Args[0])
				}
				break
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			if len(n.Args) == 1 && params.Len() > 1 {
				sc.convertTuple(params, info.TypeOf(n.Args[0]))
				break
			}
			for i, arg := range n.Args {
				if sig.Variadic() && i >= params.Len()-1 {
					last := params.At(params.Len() - 1).Type()
					if !n.Ellipsis.IsValid() {
						if s, ok := last.Underlying().(*types.Slice); ok {
							last = s.Elem()
						}
					}
					conv(last, arg)
				} else if i < params.Len() {
					conv(params.At(i).Type(), arg)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					conv(info.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			} else if len(n.Rhs) == 1 {
				if tuple, ok := info.TypeOf(n.Rhs[0]).(*types.Tuple); ok {
					for i, lhs := range n.Lhs {
						if i < tuple.Len() {
							sc.convert(info.TypeOf(lhs), tuple.At(i).Type())
						}
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					conv(info.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			if len(results) == 0 {
				break
			}
			res := results[len(results)-1]
			if len(n.Results) == res.Len() {
				for i, r := range n.Results {
					conv(res.At(i).Type(), r)
				}
			} else if len(n.Results) == 1 {
				sc.convertTuple(res, info.TypeOf(n.Results[0]))
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				conv(ch.Elem(), n.Value)
			}
		case *ast.CompositeLit:
			T := info.TypeOf(n)
			if T == nil {
				break
			}
			for i, elt := range n.Elts {
				key, val := ast.Expr(nil), elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key, val = kv.Key, kv.Value
				}
				switch u := deref(T).Underlying().(type) {
				case *types.Struct:
					if key == nil && i < u.NumFields() {
						conv(u.Field(i).Type(), val)
					} else if id, ok := key.(*ast.Ident); ok {
						if fld, ok := info.Uses[id].(*types.Var); ok {
							conv(fld.Type(), val)
						}
					}
				case *types.Slice:
					conv(u.Elem(), val)
				case *types.Array:
					conv(u.Elem(), val)
				case *types.Map:
					conv(u.Elem(), val)
					if key != nil {
						conv(u.Key(), key)
					}
				}
			}
		}
		return true
	})
}

func (sc *exportScan) convertTuple(dst *types.Tuple, src types.Type) {
	if tuple, ok := src.(*types.Tuple); ok {
		for i := range min(dst.Len(), tuple.Len()) {
			sc.convert(dst.At(i).Type(), tuple.At(i).Type())
		}
	}
}

// convert marks the methods of src that dst, if an interface and src is
// not, can call, and records src as boxed.
func (sc *exportScan) convert(dst, src types.Type) {
	if dst == nil || src == nil || types.IsInterface(src) {
		return
	}
	iface, ok := dst.Underlying().(*types.Interface)
	if !ok {
		return
	}
	sc.boxed[types.TypeString(src, nil)] = src
	for i := range iface.NumMethods() {
		meth := iface.Method(i)
		o, index, _ := types.LookupFieldOrMethod(src, true, meth.Pkg(), meth.Name())
		if fn, ok := o.(*types.Func); ok {
			sc.mark(fn)
			sc.markPath(src, index)
		}
	}
}

// instance marks the methods a type argument supplies to its type
// parameter's constraint.
func (sc *exportScan) instance(o types.Object, inst types.Instance) {
	var tparams *types.TypeParamList
	switch T := o.Type().(type) {
	case *types.Signature:
		tparams = T.TypeParams()
	case *types.Named:
		tparams = T.TypeParams()
	}
	for i := range min(tparams.Len(), inst.TypeArgs.Len()) {
		sc.convert(tparams.At(i).Constraint(), inst.TypeArgs.At(i))
	}
}
