// Every declaration is reachable: the module's non-test code is type-checked
// from source and walked from the roots a shipped program runs (each main
// package's main, every init, every package-level var initializer). A
// declaration outside bench/ that no walk reaches is a finding; the test
// fails on any finding not in reachAllow. Run `make reach` to see the
// allowlist with its reasons.
package hns_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// A reason for keeping an unreached declaration. Nothing else may keep one:
//   - fake: a fake or fault injector that tests substitute;
//   - reference: a reference implementation a test compares against;
//   - p8: a declaration in a file whose code lines hnsbench's P8 prints;
//   - seam: an accessor through which a test in another package observes
//     live state that no shipped caller reads; the entry names that test.
const (
	fake      = "fake"
	reference = "reference"
	p8        = "p8"
	seam      = "seam: "
	maxSeams  = 12
)

// reachAllow maps each kept unreached declaration to its reason. A kept
// declaration is a root: what it uses needs no entry of its own.
var reachAllow = map[string]string{
	"hns/internal/core.RemoteHNS.Changed":           seam + "TestMemoFollowsFlip",
	"hns/internal/daemon.Daemon.StdAddr":            seam + "TestFindAndResolve",
	"hns/internal/health.Breaker.State":             seam + "TestRecordFailureDedupsConnBroken",
	"hns/internal/metrics.Histogram.Count":          seam + "TestRealSocketsHistogramsReadWallClock",
	"hns/internal/metrics.Histogram.Sum":            seam + "TestFindNSMHistogramsFollowTheCallersClock",
	"hns/internal/nsm.BindBinding.CacheStats":       p8,
	"hns/internal/nsm.CHBinding.CacheStats":         p8,
	"hns/internal/nsm.HostAddr.CacheStats":          p8,
	"hns/internal/nsm.MailRoute.CacheStats":         p8,
	"hns/internal/nsm.MailRoute.FlushCache":         p8,
	"hns/internal/store.MemFS.Corrupt":              fake,
	"hns/internal/store.MemFS.Size":                 fake,
	"hns/internal/store.MemFS.Syncs":                fake,
	"hns/internal/store.NewFaultFS":                 fake,
	"hns/internal/store.NewFaultPlan":               fake,
	"hns/internal/store.NewMemFS":                   fake,
	"hns/internal/store.FaultPlan.BitrotRead":       fake,
	"hns/internal/store.FaultPlan.CrashAfterWrites": fake,
	"hns/internal/store.FaultPlan.CrashOnRemove":    fake,
	"hns/internal/store.FaultPlan.Crashed":          fake,
	"hns/internal/transport.DropEvery":              fake,
	"hns/internal/transport.DropFirst":              fake,
	"hns/internal/transport.Faulty.Calls":           fake,
	"hns/internal/transport.NewFaulty":              fake,
	"hns/internal/transport.Plan.Burst":             fake,
	"hns/internal/transport.Plan.Kill":              fake,
	"hns/internal/transport.Plan.SetLatency":        fake,
	"hns/internal/transport.encodeReply":            reference,
	"hns/internal/transport.readFrame":              reference,
	"hns/internal/transport.writeFrame":             reference,
}

// reachFinding is one unreached declaration.
type reachFinding struct {
	sym   string // import path, then Name or Type.Method
	pos   token.Position
	lines int // from the func/type/var/const keyword's line to the end
}

func TestEveryDeclarationIsReachable(t *testing.T) {
	tests := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	seams := 0
	for _, sym := range sortedKeys(reachAllow) {
		reason := reachAllow[sym]
		switch {
		case reason == fake, reason == reference, reason == p8:
		case strings.HasPrefix(reason, seam) && tests[reason[len(seam):]]:
			seams++
		default:
			t.Errorf("%s: reason %q is not fake, reference, p8 or %q plus a test that reads it", sym, reason, seam)
		}
		t.Logf("allowed %-52s %s", sym, reason)
	}
	if seams > maxSeams {
		t.Errorf("%d seam entries, at most %d", seams, maxSeams)
	}
	found, stale, err := unreached(".", "bench/", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range stale {
		t.Errorf("reachAllow names %s, which a shipped program reaches or which is gone: drop the entry", sym)
	}
	lines := 0
	for _, f := range found {
		lines += f.lines
		t.Errorf("%s: %s is reached by no shipped program (%d lines): delete it, or allowlist it in reachAllow", f.pos, f.sym, f.lines)
	}
	if lines > 0 {
		t.Logf("%d lines unreached", lines)
	}
}

// TestReachAnalysis runs the analysis on a module built to exercise each
// root and the interface rule.
func TestReachAnalysis(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"main.go": `package main

func main() {
	A()
	_ = G[int](1)
	var v any = T{}
	if m, ok := v.(interface{ M() }); ok {
		m.M()
	}
}

func init() { I() }

var _ = V()

func A()          {}
func I()          {}
func V() int      { return 0 }
func G[E any](e E) E { return e }

type T struct{}

func (T) M() {}

func B() {}
func b() {}
`,
		"main_test.go": `package main

import "testing"

func TestB(t *testing.T) { B(); b() }
`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, _, err := unreached(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.sym)
	}
	if want := []string{"m.B", "m.b"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unreached = %v, want %v", got, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// listedPackage is the part of `go list -json` the analysis reads.
type listedPackage struct {
	ImportPath, Dir, Name, Export string
	GoFiles, Deps                 []string
	Module                        *struct{ Main bool }
}

// unreached type-checks the main module in dir and returns its package-level
// declarations that no root reaches, sorted by symbol, leaving out those in
// files under skip (a slash-separated directory prefix relative to dir; ""
// skips nothing). The declarations keep names are roots too; stale lists
// those of them the program reaches without them, or that name nothing.
func unreached(dir, skip string, keep map[string]string) (found []reachFinding, stale []string, err error) {
	gocmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "list", "-deps", "-export", "-json", "./...")
	gocmd.Dir = dir
	var stderr bytes.Buffer
	gocmd.Stderr = &stderr
	out, err := gocmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}

	// Dependencies come from the compiler's export data, the module from
	// source, in go list's order (each package after its dependencies).
	fset := token.NewFileSet()
	exports := map[string]string{}
	linked := map[string]bool{} // packages some main package links
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
		if p.Name == "main" && p.Module != nil && p.Module.Main {
			linked[p.ImportPath] = true
			for _, d := range p.Deps {
				linked[d] = true
			}
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	type decl struct {
		node  ast.Node       // walked once the declaration is reached
		group []types.Object // an iota block: reached together
		rel   string         // file, relative to dir
		sym   string         // import path, then Name or Type.Method
	}
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []ast.Node
	var stdlib []*types.Package
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main {
			if pkg, err := gc.Import(p.ImportPath); err == nil {
				stdlib = append(stdlib, pkg)
			}
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			rel, err := filepath.Rel(root, fset.File(f.Pos()).Name())
			if err != nil {
				return nil, nil, err
			}
			rel = filepath.ToSlash(rel)
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") {
						if linked[p.ImportPath] {
							roots = append(roots, d)
						}
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					decls[fn] = &decl{node: d, rel: rel, sym: p.ImportPath + "." + d.Name.Name}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						tn := receiverName(recv.Type())
						methods[tn] = append(methods[tn], fn)
						decls[fn].sym = p.ImportPath + "." + tn.Name() + "." + d.Name.Name
					}
				case *ast.GenDecl:
					var group []types.Object
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							decls[obj] = &decl{node: s, rel: rel, sym: p.ImportPath + "." + obj.Name()}
						case *ast.ValueSpec:
							if d.Tok == token.VAR && linked[p.ImportPath] {
								roots = append(roots, s)
							}
							for _, n := range s.Names {
								if obj := info.Defs[n]; obj != nil && n.Name != "_" {
									decls[obj] = &decl{node: s, rel: rel, sym: p.ImportPath + "." + obj.Name()}
									group = append(group, obj)
								}
							}
						}
					}
					if d.Tok == token.CONST && usesIota(d) {
						for _, obj := range group {
							decls[obj].group = group
						}
					}
				}
			}
		}
	}

	// The interface rule: a reached type's method is reached when any
	// interface in the program, named or anonymous, has a method of its
	// name and shape.
	called := map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				called[shape(it.Method(i))] = true
			}
		}
	}
	for _, tv := range info.Types {
		addIface(tv.Type)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			addIface(obj.Type())
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range stdlib {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	// errors.Is and errors.As unwrap and match through anonymous interfaces
	// inside the standard library, which export data omits.
	for _, s := range []string{"Is/1/1/false", "As/1/1/false", "Unwrap/0/1/false"} {
		called[s] = true
	}

	reached := map[types.Object]bool{}
	work := roots
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		d := decls[obj]
		if d == nil || reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, d.node)
		for _, g := range d.group {
			mark(g)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if called[shape(m)] {
					mark(m)
				}
			}
		}
	}
	walk := func() {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
		}
	}
	walk()

	// A kept declaration is a root too, once the program's own walk is done:
	// what it uses stays with it.
	bySym := map[string]types.Object{}
	for obj, d := range decls {
		bySym[d.sym] = obj
	}
	for sym := range keep {
		if obj := bySym[sym]; obj == nil || reached[obj] {
			stale = append(stale, sym)
		}
	}
	for sym := range keep {
		if obj := bySym[sym]; obj != nil {
			mark(obj)
		}
	}
	walk()

	for obj, d := range decls {
		if reached[obj] || skip != "" && strings.HasPrefix(d.rel, skip) {
			continue
		}
		found = append(found, reachFinding{
			sym:   d.sym,
			pos:   fset.Position(d.node.Pos()),
			lines: fset.Position(d.node.End()).Line - fset.Position(d.node.Pos()).Line + 1,
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].sym < found[j].sym })
	sort.Strings(stale)
	return found, stale, nil
}

// receiverName is the type a method is declared on.
func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// shape is a method's name, parameter and result counts, and whether it is
// variadic: a method that satisfies an interface method has its shape.
func shape(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	return fmt.Sprintf("%s/%d/%d/%t", m.Name(), sig.Params().Len(), sig.Results().Len(), sig.Variadic())
}

// usesIota reports whether a const block's values count with iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
