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

// testOnlyFields are the exported fields of struct types under
// internal/, keyed "pkg.Type.Field", that non-test code reads but only
// tests set, each with the test or benchmark that sets it: one of the
// field's own package ("TestX"), or of another ("rtpb.BenchmarkX").
// Every entry is kept on purpose: each is the reference arm of a
// comparison the paper or the design makes.
var testOnlyFields = map[string]string{
	// The seed's request storm, which the retransmission throttle damps.
	"internal/core.Config.DisableRetransmitThrottle": "TestRetransmitThrottleDampsRequestStorm",
	// The harness must catch the split brain that epoch fencing prevents.
	"internal/chaos.Scenario.DisableFencing": "TestChaosCatchesFencingRegression",
	// The scheduling simulator releases offset tasks; admission assigns
	// none yet (ROADMAP 1a).
	"internal/sched.Task.Offset": "TestSimulateOffsets",
	// A pinned cell of Run: backup-initiated retransmission switched off.
	"internal/experiments.Params.DisableGapRecovery": "TestRunCountersPinned",
	// The paper's half-window slack against scheduling at the Theorem 5
	// boundary.
	"internal/experiments.Params.SlackFactor": "rtpb.BenchmarkAblationSlackFactor",
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
	m := loadModule(t, false)
	exported := map[types.Object]string{} // function → "pkg.Name"
	for _, p := range m.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if f, ok := scope.Lookup(name).(*types.Func); ok && f.Exported() {
				exported[f] = strings.TrimPrefix(p.path, "rtpb/") + "." + name
			}
		}
	}
	checkUses(t, m, funcGuard, testOnlyFuncs, exported, m.used(exported))
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
	m := loadModule(t, false)
	exported := map[types.Object]string{} // method → "pkg.Type.Name"
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
	checkUses(t, m, methodGuard, testOnlyMethods, exported, used)
}

// TestInternalFieldsAreSet is the guard for the exported fields of
// every struct type declared under internal/: a field that a non-test
// file reads must also be set by one, anywhere in the module, or it is
// an option only tests choose and its branch is dead in every binary;
// and a field that no file reads, tests included, is dead bookkeeping.
// A field is set where it is a composite-literal key (or a positional
// literal lists it), the target of an assignment or an inc/dec, has its
// address taken, or has a pointer-receiver method called on it, and
// where a field inside it is set that way. A method of a struct type
// that assigns a constant expression to a field of that same type is
// filling in a default, not setting it: an option that only its own
// normalize ever sets is a constant behind a knob. A write-only target
// (plain assignment, op-assignment, inc/dec) is not a read, and neither
// is reflection (encoding/json, fmt's %v). Otherwise testOnlyFields must
// name the test that sets it, and a stale entry fails as a stale
// testOnlyFuncs entry does.
func TestInternalFieldsAreSet(t *testing.T) {
	m := loadModule(t, false)
	exported := map[types.Object]string{} // field → "pkg.Type.Name"
	for _, p := range m.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					exported[f] = strings.TrimPrefix(p.path, "rtpb/") + "." + name + "." + f.Name()
				}
			}
		}
	}
	read, set := m.fieldUses()
	ok := map[types.Object]bool{}
	for f := range exported {
		ok[f] = !read[f] || set[f]
	}
	checkUses(t, m, fieldGuard, testOnlyFields, exported, ok)

	// Tests included, some file must read every field. An embedded field
	// is skipped: its promoted selections read it.
	all := loadModule(t, true)
	readAnywhere, _ := all.fieldUses()
	readAt := map[string]bool{}
	for f := range readAnywhere {
		readAt[all.fset.Position(f.Pos()).String()] = true
	}
	var unread []string
	for f, name := range exported {
		if !f.(*types.Var).Embedded() && !readAt[m.fset.Position(f.Pos()).String()] {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s is read by no file, tests included: delete it", name)
	}
}

// fieldUses sorts every non-test use of a struct field (through its
// generic origin) into reads and sets, as TestInternalFieldsAreSet
// defines them.
func (m *module) fieldUses() (read, set map[types.Object]bool) {
	read, set = map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range m.pkgs {
		info := p.info
		field := func(id *ast.Ident) *types.Var {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		writeOnly := map[*ast.Ident]bool{}
		// target marks the fields that e stores into as set: a field, and
		// the value fields and array elements that hold it.
		target := func(e ast.Expr, write bool) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); ok {
						e = x.X
						continue
					}
				case *ast.SelectorExpr:
					if f := field(x.Sel); f != nil {
						set[f] = true
						writeOnly[x.Sel] = write
						if _, ptr := f.Type().Underlying().(*types.Pointer); !ptr {
							e = x.X
							continue
						}
					}
				}
				return
			}
		}
		for _, file := range p.files {
			for _, decl := range file.Decls {
				own := receiverStruct(info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CompositeLit:
						st, ok := info.Types[x].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range x.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if f := field(kv.Key.(*ast.Ident)); f != nil {
									set[f], writeOnly[kv.Key.(*ast.Ident)] = true, true
								}
							} else {
								set[st.Field(i).Origin()] = true
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range x.Lhs {
							// A constant stored into a field of the method's
							// own struct type is a default, not a set.
							sel, _ := lhs.(*ast.SelectorExpr)
							if sel != nil && x.Tok == token.ASSIGN && len(x.Rhs) == len(x.Lhs) &&
								info.Types[x.Rhs[i]].Value != nil && hasField(own, field(sel.Sel)) {
								writeOnly[sel.Sel] = true
								continue
							}
							target(lhs, true)
						}
					case *ast.IncDecStmt:
						target(x.X, true)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							target(x.X, false)
						}
					case *ast.SelectorExpr:
						sel := info.Selections[x]
						if sel == nil || sel.Kind() != types.MethodVal {
							break
						}
						_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						_, ptrX := info.Types[x.X].Type.Underlying().(*types.Pointer)
						if ptrRecv && !ptrX {
							target(x.X, false)
						}
					}
					return true
				})
			}
		}
		for id := range info.Uses {
			if f := field(id); f != nil && !writeOnly[id] {
				read[f] = true
			}
		}
	}
	return read, set
}

// receiverStruct is the struct type that decl is a method of, or nil.
func receiverStruct(info *types.Info, decl ast.Decl) *types.Struct {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil {
		return nil
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// hasField reports whether f is a field of st (false when either is nil).
func hasField(st *types.Struct, f *types.Var) bool {
	for i := 0; st != nil && f != nil && i < st.NumFields(); i++ {
		if st.Field(i).Origin() == f {
			return true
		}
	}
	return false
}

// guard names a pass's allowlist and words for its messages.
type guard struct {
	list   string // the allowlist's name
	kind   string // what the pass checks
	lacks  string // what a flagged object lacks outside tests
	remedy string // what its allowlist entry names
	has    string // what a stale entry's object gained
}

var (
	funcGuard   = guard{"testOnlyFuncs", "function", "has no use outside tests", "uses it", "has a non-test use now"}
	methodGuard = guard{"testOnlyMethods", "method", "has no use outside tests", "uses it", "has a non-test use now"}
	fieldGuard  = guard{"testOnlyFields", "struct field", "is read but set only by tests", "sets it", "has a non-test setter now"}
)

// checkUses reports every exported object that is neither used nor in
// the allowlist allow, and every stale entry of that allowlist.
func checkUses(t *testing.T, m *module, g guard, allow map[string]string, exported map[types.Object]string, used map[types.Object]bool) {
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
			t.Errorf("%s %s; drop its %s entry", name, g.has, g.list)
		case listed && !m.tests[test]:
			t.Errorf("%s: %s names %s, which is not a test, fuzz or benchmark function", g.list, name, test)
		case !listed && !used[f]:
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s %s: delete it, or list the test that %s in %s", name, g.lacks, g.remedy, g.list)
	}
	for name := range allow {
		if !seen[name] {
			t.Errorf("%s: %s is not an exported %s under internal/; drop its entry", g.list, name, g.kind)
		}
	}
}

// modPkg is one type-checked non-test package of the module.
type modPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is the module's non-test packages, type-checked, and its test,
// fuzz and benchmark functions ("internal/wire.FuzzDecodeFrame").
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*modPkg
	tests map[string]bool
}

// loadModule parses every package directory of the module (build
// constraints applied for this platform) and type-checks the non-test
// files, or with withTests every file, each external test package as
// "<path>_test": module imports resolve to the packages checked here, the
// standard library through the source importer.
func loadModule(t *testing.T, withTests bool) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{fset: fset, pkgs: map[string]*modPkg{}, tests: map[string]bool{}}
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
		if withTests {
			tip := ip
			if strings.HasSuffix(f.Name.Name, "_test") {
				tip += "_test"
			}
			files[tip] = append(files[tip], f)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz") || strings.HasPrefix(fd.Name.Name, "Benchmark")) {
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
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(ip, fset, pkgFiles, info)
		if err != nil {
			return nil, err
		}
		m.pkgs[ip] = &modPkg{path: ip, files: pkgFiles, types: tp, info: info}
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
func (m *module) used(exported map[types.Object]string) map[types.Object]bool {
	used := map[types.Object]bool{}
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
