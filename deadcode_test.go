package rtpb_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyFuncs are the exported package-level functions under
// internal/ that no non-test file calls, each with a test of its own
// package that uses it. Every entry is kept on purpose.
var testOnlyFuncs = map[string]string{
	// The scheduling simulator and the Theorem 2 bounds are the oracles
	// the admission tests compare against (ROADMAP 6).
	"internal/sched.Simulate":              "TestSimulateOffsets",
	"internal/sched.PhaseVarianceBoundEDF": "TestTheorem2PhaseVarianceBoundEDF",
	"internal/sched.PhaseVarianceBoundRM":  "TestTheorem2PhaseVarianceBoundRM",
	"internal/sched.SpecializeSa":          "TestSpecializeSaHarmonicAndNoBetterThanSr",
	// The paper's conditions, which admission does not call yet (ROADMAP
	// 10a decides whether they become its path).
	"internal/temporal.Lemma1Sufficient":        "TestLemma1ImpliesTheorem1",
	"internal/temporal.Lemma2Sufficient":        "TestLemma2ImpliesTheorem4",
	"internal/temporal.Lemma3SufficientPrimary": "TestLemma3ImpliesTheorem6WithUniversalBound",
	"internal/temporal.Theorem1":                "TestTheorem1Boundary",
	"internal/temporal.Theorem4":                "TestTheorem4Boundary",
	"internal/temporal.MaxBackupPeriod":         "TestTheorem4Boundary",
	"internal/temporal.Theorem5":                "TestTheorem5",
	"internal/temporal.Theorem6Primary":         "TestTheorem6",
	"internal/temporal.Theorem6Backup":          "TestTheorem6",
	// ROADMAP 3a promotes the histogram into the ledger.
	"internal/trace.NewHistogram": "TestHistogramBuckets",
	// The receive path keeps a wire.Decoder; DecodeFrame, one on a copy,
	// is the frame tests' and the frame fuzzer's entry point.
	"internal/wire.DecodeFrame": "FuzzDecodeFrame",
}

// testOnlyMethods are the exported methods of named types under
// internal/, keyed "pkg.Type.Method", that no non-test file selects and
// that implement no interface method, each with the test that uses it:
// a test of the method's own package ("TestX"), or of another
// ("internal/chaos.TestX"). Every entry is kept on purpose.
var testOnlyMethods = map[string]string{
	// The scheduling simulator's trace and the task set's hyperperiod are
	// the oracles the admission tests compare against (ROADMAP 6).
	"internal/sched.Trace.PhaseVariance": "TestTheorem3ZeroPhaseVarianceUnderDCS",
	"internal/sched.TaskSet.Hyperperiod": "TestHyperperiod",
	// ROADMAP 3a promotes the histogram into the ledger.
	"internal/trace.Histogram.Add":    "TestHistogramBuckets",
	"internal/trace.Histogram.Max":    "TestHistogramBuckets",
	"internal/trace.Histogram.Render": "TestHistogramBuckets",
	"internal/trace.Histogram.Total":  "TestHistogramBuckets",
	// The placement property (no accepted placement overcommits a shard)
	// is stated on the primary's admission predicate, which the shard
	// package cannot reach otherwise.
	"internal/core.Replica.Feasible": "internal/shard.TestPlacementSequenceKeepsShardsFeasible",
}

// TestInternalFuncsHaveCallers fails when an exported package-level
// function under internal/ is referenced by no non-test file in the
// module (ROADMAP aim 2: ship only what a binary or a scenario runs),
// unless testOnlyFuncs names the test that uses it. A stale entry fails
// too: a function that gained a caller, one that no longer exists, or
// one whose test is gone. The module's non-test packages are
// type-checked from source, so a reference is a resolved use of the
// function's object, not a matching name.
func TestInternalFuncsHaveCallers(t *testing.T) {
	m := loadModule(t)
	exported := map[*types.Func]string{} // function → "pkg.Name"
	for _, p := range m.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if f, ok := scope.Lookup(name).(*types.Func); ok && f.Exported() {
				exported[f] = strings.TrimPrefix(p.path, "rtpb/") + "." + name
			}
		}
	}
	checkUses(t, m, "testOnlyFuncs", testOnlyFuncs, exported, m.used(exported))
}

// TestInternalMethodsHaveCallers is the same guard for the exported
// methods of every named type declared under internal/. A method is
// used when a non-test file anywhere in the module selects it (a call,
// a method value or expression, a promotion through embedding), or
// when its type, or a pointer to it, satisfies a named interface of the
// module or of a package the module imports, or error, that has a
// method of that name. Otherwise testOnlyMethods must name the test
// that uses it, and a stale entry fails as a stale testOnlyFuncs entry
// does.
func TestInternalMethodsHaveCallers(t *testing.T) {
	m := loadModule(t)
	exported := map[*types.Func]string{} // method → "pkg.Type.Name"
	var named []*types.Named
	for _, p := range m.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			named = append(named, n)
			for i := 0; i < n.NumMethods(); i++ {
				if f := n.Method(i); f.Exported() {
					exported[f] = strings.TrimPrefix(p.path, "rtpb/") + "." + name + "." + f.Name()
				}
			}
		}
	}
	used := m.used(exported)
	// Every named interface the module can see, indexed by method name.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() && !strings.HasPrefix(p.Path(), "rtpb") {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
				if it, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces["Error"] = append(ifaces["Error"], errIface)
	for _, n := range named {
		for i := 0; i < n.NumMethods(); i++ {
			f := n.Method(i)
			if used[f] || exported[f] == "" {
				continue
			}
			for _, it := range ifaces[f.Name()] {
				if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
					used[f] = true
					break
				}
			}
		}
	}
	checkUses(t, m, "testOnlyMethods", testOnlyMethods, exported, used)
}

// checkUses reports every exported object that is neither used nor in
// the allowlist allow (named list in messages), and every stale entry of
// that allowlist.
func checkUses(t *testing.T, m *module, list string, allow map[string]string, exported map[*types.Func]string, used map[*types.Func]bool) {
	t.Helper()
	seen := map[string]bool{}
	var dead []string
	for f, name := range exported {
		seen[name] = true
		test, listed := allow[name]
		if !strings.Contains(test, ".") {
			test = name[:strings.Index(name, ".")+1] + test
		}
		switch {
		case listed && used[f]:
			t.Errorf("%s has a non-test use now; drop its %s entry", name, list)
		case listed && !m.tests[test]:
			t.Errorf("%s: %s names %s, which is not a test or fuzz function", list, name, test)
		case !listed && !used[f]:
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s has no use outside tests: delete it, or list the test that uses it in %s", name, list)
	}
	for name := range allow {
		if !seen[name] {
			t.Errorf("%s: %s is not an exported function or method under internal/; drop its entry", list, name)
		}
	}
}

// modPkg is one type-checked non-test package of the module.
type modPkg struct {
	path  string
	types *types.Package
	info  *types.Info
}

// module is the module's non-test packages, type-checked, and its test
// and fuzz functions ("internal/wire.FuzzDecodeFrame").
type module struct {
	pkgs  map[string]*modPkg
	tests map[string]bool
}

// loadModule parses every package directory of the module (build
// constraints applied for this platform) and type-checks the non-test
// files: module imports resolve to the packages checked here, the
// standard library through the source importer.
func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{pkgs: map[string]*modPkg{}, tests: map[string]bool{}}
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		dir, name := filepath.Split(p)
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("rtpb", filepath.ToSlash(filepath.Clean(dir)))
		if !strings.HasSuffix(name, "_test.go") {
			files[ip] = append(files[ip], f)
			return nil
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				m.tests[strings.TrimPrefix(ip, "rtpb/")+"."+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(fset, "source", nil)
	var check func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if ip == "rtpb" || strings.HasPrefix(ip, "rtpb/") {
			return check(ip)
		}
		return std.Import(ip)
	})
	check = func(ip string) (*types.Package, error) {
		if p, ok := m.pkgs[ip]; ok {
			return p.types, nil
		}
		pkgFiles, ok := files[ip]
		if !ok {
			return nil, fmt.Errorf("no non-test files for %s", ip)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		tp, err := (&types.Config{Importer: imp}).Check(ip, fset, pkgFiles, info)
		if err != nil {
			return nil, err
		}
		m.pkgs[ip] = &modPkg{path: ip, types: tp, info: info}
		return tp, nil
	}
	for ip := range files {
		if _, err := check(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}
	return m
}

// internal is the module's packages under internal/.
func (m *module) internal() []*modPkg {
	var ps []*modPkg
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.path, "rtpb/internal/") {
			ps = append(ps, p)
		}
	}
	return ps
}

// used marks each object of exported that a non-test file references
// (through its generic origin), not counting a function's references to
// itself.
func (m *module) used(exported map[*types.Func]string) map[*types.Func]bool {
	used := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			f = f.Origin()
			if exported[f] == "" || f.Scope() != nil && f.Scope().Contains(id.Pos()) {
				continue
			}
			used[f] = true
		}
	}
	return used
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
