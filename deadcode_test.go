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
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, "rtpb/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if f, ok := scope.Lookup(name).(*types.Func); ok && f.Exported() {
				exported[f] = strings.TrimPrefix(p.path, "rtpb/") + "." + name
			}
		}
	}
	called := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			f, ok := obj.(*types.Func)
			// A function's uses of itself do not count as callers.
			if !ok || exported[f] == "" || f.Scope().Contains(id.Pos()) {
				continue
			}
			called[f] = true
		}
	}
	seen := map[string]bool{}
	var dead []string
	for f, name := range exported {
		seen[name] = true
		test, listed := testOnlyFuncs[name]
		switch {
		case listed && called[f]:
			t.Errorf("%s has a non-test caller now; drop its testOnlyFuncs entry", name)
		case listed && !m.tests[name[:strings.LastIndex(name, ".")+1]+test]:
			t.Errorf("testOnlyFuncs: %s names %s, which is not a test of its package", name, test)
		case !listed && !called[f]:
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or list the test that uses it in testOnlyFuncs", name)
	}
	for name := range testOnlyFuncs {
		if !seen[name] {
			t.Errorf("testOnlyFuncs: %s is not an exported function under internal/; drop its entry", name)
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
