package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// reachRootPackages are packages whose exported functions are roots beside
// every func main: they are run by no binary and stay for the stated reason.
var reachRootPackages = map[string]string{
	"internal/theory": "the paper's Section 6 convergence proof as executable checks; TestTheoryPredictsVTMContraction holds its spectral radius to EngineVTM's measured contraction",
}

// reachKeep lists the functions under internal/ that no binary reaches and
// that stay anyway, each with its reason: what tests of reachable code compare
// against (a reference implementation), assert with or build their inputs
// from across packages — moving those into _test.go files would only copy
// them — and what the standard library calls through an interface it does not
// export. An entry that names no unreached function fails the test like an
// unlisted orphan does.
var reachKeep = map[string]string{
	// References that tests of reachable code compare against.
	"internal/partition.Result.Reconstruct": "the EVS oracle: the torn subsystems must sum back to the original system (partition's invariant and property tests, core's paper example)",
	"internal/geom.YaoPicks":                "the picks behind YaoEdges, compared pick for pick with the all-pairs oracle in yao_test.go and by the out-degree tests of sparse and topology",
	"internal/dense.LU.Det":                 "independent oracle of SymEigen: the eigenvalue product must equal the determinant (TestSymEigenTraceDetProperty)",
	"internal/factor.Perm.Check":            "permutation validity asserted on every ordering (RCM, AMD, ND, postorder tests)",
	"internal/sparse.CSR.PermuteSym":        "the materialised PAPᵀ the factor oracles read (symbolic_oracle_test.go), against which the analysis and factors that read A through the permutation are compared bit for bit; also shuffles factor's test inputs",

	// Assertion helpers of tests in several packages.
	"internal/sparse.CSR.EqualApprox":          "matrix equality in the tests of sparse, graph, partition, factor, core and cmd/dtmgen",
	"internal/sparse.Vec.Equal":                "vector equality in the tests of nine packages",
	"internal/sparse.Vec.NormInf":              "residual and error norm in the tests of core, dense, factor, experiments and sparse",
	"internal/sparse.Vec.Sub":                  "error vector x − x* in the tests of factor, iterative, partition, dense, core and dist",
	"internal/sparse.CSR.IsDiagonallyDominant": "asserted on every generator's output and on EVS's default split",
	"internal/dense.Matrix.EqualApprox":        "matrix equality in the tests of dense and theory",

	// Fixtures of tests in several packages.
	"internal/sparse.Identity":        "the identity as an input of factor's, core's and sparse's tests",
	"internal/sparse.RandomVec":       "seeded random right-hand sides in the tests of factor, sparse and dense",
	"internal/dense.FromRows":         "literal matrices in the tests of dense and theory",
	"internal/dense.Matrix.Mul":       "B·Bᵀ + n·I, the random SPD input of dense's factorisation property tests; QᵀQ = I in theory's",
	"internal/dense.Matrix.Transpose": "B·Bᵀ + n·I, the random SPD input of dense's factorisation property tests; QᵀQ = I in theory's",

	// The allocating Solve beside each backend's SolveTo, which binaries call.
	"internal/dense.Cholesky.Solve":    "x := f.Solve(b) in dense's tests of the factor whose SolveTo binaries call",
	"internal/factor.Cholesky.Solve":   "x := f.Solve(b) in factor's agreement tests of the backend whose SolveTo binaries call",
	"internal/factor.Supernodal.Solve": "x := f.Solve(b) in factor's agreement tests of the backend whose SolveTo binaries call",

	// Called by errors.Is / errors.As through unexported interfaces.
	"internal/sparse.HashMismatchError.Is": "errors.Is(err, sparse.ErrHashMismatch) in dtmd's -mm selftest reaches it through an interface package errors does not export",
	"internal/dist.WorkerLostError.Unwrap": "errors.Is(err, dist.ErrWorkerLost), what the failover tests assert of a lost session, reaches it through an interface package errors does not export",
}

// TestEveryInternalFunctionIsReachable recomputes, from the type-checked
// source, which functions under internal/ some binary can execute: the roots
// are func main of every main package in this module and of bench/dtmperf,
// every init and package-level initialiser those link in, and the exported
// functions of reachRootPackages; a function is reached when reached code names
// it, when reached code calls its name through an interface its receiver
// implements, or when its receiver is a reached type that satisfies an
// interface of the standard library (fmt.Stringer, error, sort.Interface, …:
// callers this test cannot see). Test files are not read, so a helper only
// tests call is an orphan unless reachKeep says why it stays.
func TestEveryInternalFunctionIsReachable(t *testing.T) {
	l, mains := loadModule(t)
	g := newReachGraph(l)
	for _, dir := range mains {
		g.linkIn(l.pkgs[dir].types)
		g.reach(l.pkgs[dir].types.Scope().Lookup("main"))
	}
	for dir := range reachRootPackages {
		p := l.pkgs[dir]
		if p == nil {
			t.Errorf("reachRootPackages names %s, which is not a package under internal/", dir)
			continue
		}
		g.linkIn(p.types)
		for fn, decl := range g.decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fn.Pkg() == p.types && fd.Name.IsExported() {
				g.reach(fn)
			}
		}
	}
	g.run()

	orphans := map[string]string{}
	for obj, decl := range g.decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || g.reached[obj] || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		from, to := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
		if fd.Doc != nil {
			from = l.fset.Position(fd.Doc.Pos())
		}
		orphans[funcName(obj.(*types.Func))] = fmt.Sprintf("%s:%d (%d lines)", from.Filename, l.fset.Position(fd.Pos()).Line, to.Line-from.Line+1)
	}
	var report []string
	for name, where := range orphans {
		if reachKeep[name] == "" {
			report = append(report, fmt.Sprintf("%s  %s: no binary reaches it; delete it with its tests, or give reachKeep the reason it stays", name, where))
		}
	}
	for name, reason := range reachKeep {
		if _, ok := orphans[name]; !ok {
			report = append(report, fmt.Sprintf("%s: stale reachKeep entry (no such function, or a binary reaches it now)", name))
		} else if strings.TrimSpace(reason) == "" {
			report = append(report, fmt.Sprintf("%s: reachKeep entry without a reason", name))
		}
	}
	sort.Strings(report)
	for _, line := range report {
		t.Error(line)
	}
}

// fieldKeep lists the struct fields under internal/ and cmd/ that no non-test
// code reads and that stay anyway, each with the tests that read it. An entry
// that names a field code reads, or no field at all, fails the test like an
// unlisted unread field does.
var fieldKeep = map[string]string{
	// Measurements binaries do not print, asserted on by tests.
	"internal/core.TracePoint.TwinGap":              "hashed into the trace golden of TestVTMGolden",
	"internal/core.TracePoint.Solves":               "TestTraceMessagesCountsSends and TestTraceDownsampleKeepsEndpoints compare it with the result's count; hashed by TestVTMGolden",
	"internal/core.TracePoint.Messages":             "TestTraceMessagesCountsSends: the last point counts the waves sent; hashed by TestVTMGolden",
	"internal/core.Result.Impedances":               "TestSessionImpedancesMatchTheOracle holds a dist worker's impedances to the DES oracle's; TestDESGridConvergesOnUniformMachine counts them",
	"internal/core.LinkEnd.Z":                       "the end's impedance TestSubdomainAccessorsAndWaves checks against the assignment and the condensed tests' from-scratch solve (TestCondensedSolveMatchesFullSolve) reads",
	"internal/core.Subdomain.interiorSolves":        "TestCondensedRunSolvesEachInteriorOnce and TestCondensedSolveMatchesFullSolve count the interior solves X() materialises",
	"internal/dist.Result.Owner":                    "the final ownership map TestFailoverChanMatchesOracle and TestRejoinRestartedWorker assert after failovers and rejoins",
	"internal/iterative.AsyncResult.Residual":       "TestAsyncBlockJacobiStopRule holds a converged run's residual to Tol",
	"internal/factor.SupernodalAnalysis.Ordering":   "TestAnalyzeSupernodalMatchesFactorisation holds the analysis to the factor it predicts",
	"internal/factor.SupernodalAnalysis.Supernodes": "TestAnalyzeSupernodalMatchesFactorisation holds the analysis to the factor it predicts",
	"internal/partition.Result.Boundary":            "TestEVSPaperExampleDefaultSplit checks the paper's boundary; hashed by TestTearGolden",
	"internal/partition.Result.Splits":              "the split coefficients TestEVSReconstructionProperty and TestEVSPaperExampleDefaultSplit sum back to the original system; hashed by TestTearGolden",

	// Search counters that prove a path runs.
	"internal/factor.amdStats.supervars": "TestAMDSupervariableDetection: AMD finds indistinguishable variables",
	"internal/factor.amdStats.massElim":  "TestAMDMassElimination: AMD eliminates variables alongside their pivot",
	"internal/geom.search.evals":         "the evaluations-per-point counter TestYaoConeFallback and BenchmarkYaoEdges report",
	"internal/geom.cones.fallbacks":      "TestYaoConeFallback: the exact cone fallback runs near cone edges",
}

// TestEveryInternalFieldIsRead is the function rule's counterpart for data:
// every named field of a struct declared in a non-test file under internal/
// or cmd/ must be read by non-test code of the module or of bench/dtmperf. A
// read is any use of the field other than as an assignment's target, an
// increment's operand or a composite literal's key; a field of a generic type
// counts by its origin. Embedded fields and the fields of reachRootPackages
// are exempt, and fieldKeep names the tests that read the rest. The reason of
// each fieldKeep entry must name a test function of the module.
func TestEveryInternalFieldIsRead(t *testing.T) {
	l, _ := loadModule(t)
	type declared struct {
		name, where string
	}
	fields := map[*types.Var]declared{}
	read := map[*types.Var]bool{}
	written := map[*ast.Ident]bool{}
	for dir, p := range l.pkgs {
		checked := (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && reachRootPackages[dir] == ""
		for _, f := range p.files {
			if checked {
				var stack []ast.Node
				ast.Inspect(f, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					owner := dir + "." + ownerName(stack)
					for _, fd := range st.Fields.List {
						for _, id := range fd.Names {
							if v, ok := p.info.Defs[id].(*types.Var); ok && id.Name != "_" {
								pos := l.fset.Position(id.Pos())
								fields[v] = declared{owner + "." + id.Name, fmt.Sprintf("%s:%d", pos.Filename, pos.Line)}
							}
						}
					}
					return true
				})
			}
			writeTargets(f, written)
		}
	}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
	}

	unread := map[string]string{}
	for v, d := range fields {
		if !read[v] {
			unread[d.name] = d.where
		}
	}
	tests := testFunctions(t)
	var report []string
	for name, where := range unread {
		if fieldKeep[name] == "" {
			report = append(report, fmt.Sprintf("%s  %s: no non-test code reads it; delete it with what writes it, or give fieldKeep the tests that read it", name, where))
		}
	}
	for name, reason := range fieldKeep {
		if _, ok := unread[name]; !ok {
			report = append(report, fmt.Sprintf("%s: stale fieldKeep entry (no such field, or non-test code reads it now)", name))
			continue
		}
		named := false
		for _, word := range strings.FieldsFunc(reason, func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' }) {
			named = named || tests[word]
		}
		if !named {
			report = append(report, fmt.Sprintf("%s: fieldKeep reason names no test function of the module", name))
		}
	}
	sort.Strings(report)
	for _, line := range report {
		t.Error(line)
	}
}

// ownerName names the struct type at the top of an AST stack by the
// declarations around it, outermost first: the function (with its receiver's
// type), type, variable and field names on the way down —
// "Simulator.stats" for a field of the struct type of a field, "Worker.Run.wait"
// for a local variable's anonymous struct.
func ownerName(stack []ast.Node) string {
	var parts []string
	for _, n := range stack[:len(stack)-1] {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				if named := recvTypeName(n.Recv.List[0].Type); named != "" {
					parts = append(parts, named)
				}
			}
			parts = append(parts, n.Name.Name)
		case *ast.TypeSpec:
			parts = append(parts, n.Name.Name)
		case *ast.ValueSpec:
			parts = append(parts, n.Names[0].Name)
		case *ast.Field:
			if len(n.Names) > 0 {
				parts = append(parts, n.Names[0].Name)
			}
		}
	}
	return strings.Join(parts, ".")
}

// recvTypeName is the type name of a receiver expression: T, *T, T[P] or *T[P].
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// writeTargets adds to written the identifiers in f that name what an
// assignment or an increment writes, and the keys of its composite literals:
// the uses of a field that are not reads.
func writeTargets(f *ast.File, written map[*ast.Ident]bool) {
	target := func(x ast.Expr) {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			written[e] = true
		case *ast.SelectorExpr:
			written[e.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
			}
		}
		return true
	})
}

// testFunctions returns the names of the Test, Fuzz, Benchmark and Example
// functions declared in the _test.go files of the module and of bench/.
func testFunctions(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
					names[fd.Name.Name] = names[fd.Name.Name] || strings.HasPrefix(fd.Name.Name, prefix)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

const modulePath = "repro"

// loadModule type-checks every main package of the module and of bench/dtmperf
// and every package under internal/, and returns the main packages'
// directories.
func loadModule(t *testing.T) (*loader, []string) {
	t.Helper()
	l := newLoader()
	var mains []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, empty := err.(*build.NoGoError); empty {
			return nil
		}
		if err != nil {
			return err
		}
		if bp.Name == "main" || strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			if _, err := l.Import(modulePath + "/" + filepath.ToSlash(path)); err != nil {
				return err
			}
		}
		if bp.Name == "main" {
			mains = append(mains, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) < 5 {
		t.Fatalf("found only %d main packages (%v): cmd/ and bench/dtmperf should give 5", len(mains), mains)
	}
	return l, mains
}

// funcName is the key reachKeep uses: the package directory, then the receiver
// type if any, then the name — "internal/sparse.CSR.EqualApprox".
func funcName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// namedOf strips pointers and returns the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// A loader type-checks the module's packages from their directories (bench/
// is the module repro/bench, so its import paths are directories too) and
// everything else through the standard library's source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPackage // by directory relative to the module root
}

type loadedPackage struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*loadedPackage{}}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	dir := strings.TrimPrefix(path, modulePath+"/")
	if p := l.pkgs[dir]; p != nil {
		return p.types, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &loadedPackage{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = p
	return p.types, nil
}

// A reachGraph has one node per package-level declaration of the module
// (function, method, type, variable, constant) and walks from the roots along
// the identifiers each declaration uses.
type reachGraph struct {
	decls     map[types.Object]ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	info      map[*types.Package]*types.Info
	reached   map[types.Object]bool
	work      []types.Object
	linked    map[*types.Package]bool
	types     []*types.Named       // reached concrete named types of the module
	dynamic   map[dynamicCall]bool // interface methods reached code calls
	stdIfaces []*types.Interface   // non-empty interfaces the standard library declares
}

type dynamicCall struct {
	iface *types.Interface
	name  string
}

func newReachGraph(l *loader) *reachGraph {
	g := &reachGraph{
		decls:   map[types.Object]ast.Node{},
		info:    map[*types.Package]*types.Info{},
		reached: map[types.Object]bool{},
		linked:  map[*types.Package]bool{},
		dynamic: map[dynamicCall]bool{},
	}
	seenStd := map[*types.Package]bool{}
	addIface := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() && tn.Pkg() != nil {
			return
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			g.stdIfaces = append(g.stdIfaces, it)
		}
	}
	addIface(types.Universe.Lookup("error"))
	for _, p := range l.pkgs {
		g.info[p.types] = p.info
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					g.decls[p.info.Defs[d.Name]] = d
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							g.decls[p.info.Defs[spec.Name]] = spec
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								g.decls[p.info.Defs[name]] = spec
							}
						}
					}
				}
			}
		}
		for _, imp := range p.types.Imports() {
			if strings.HasPrefix(imp.Path(), modulePath+"/") || seenStd[imp] {
				continue
			}
			seenStd[imp] = true
			for _, name := range imp.Scope().Names() {
				addIface(imp.Scope().Lookup(name))
			}
		}
	}
	return g
}

// linkIn makes roots of what a binary importing pkg runs before main: every
// init function and every package-level initialiser of pkg and of the module
// packages it imports.
func (g *reachGraph) linkIn(pkg *types.Package) {
	info := g.info[pkg]
	if info == nil || g.linked[pkg] {
		return
	}
	g.linked[pkg] = true
	for _, imp := range pkg.Imports() {
		g.linkIn(imp)
	}
	for obj := range g.decls {
		if obj.Pkg() != pkg {
			continue
		}
		switch obj := obj.(type) {
		case *types.Var:
			g.reach(obj)
		case *types.Func:
			if obj.Name() == "init" && obj.Type().(*types.Signature).Recv() == nil {
				g.reach(obj)
			}
		}
	}
}

func (g *reachGraph) reach(obj types.Object) {
	if obj == nil || g.reached[obj] {
		return
	}
	if _, ours := g.info[obj.Pkg()]; !ours {
		return
	}
	g.reached[obj] = true
	g.work = append(g.work, obj)
}

// run drains the worklist, then lets every reached type answer the interface
// calls seen so far, until neither adds anything.
func (g *reachGraph) run() {
	for len(g.work) > 0 {
		for len(g.work) > 0 {
			obj := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			g.visit(obj)
		}
		for _, named := range g.types {
			for _, it := range g.stdIfaces {
				g.reachImplementation(named, it, "")
			}
			for call := range g.dynamic {
				g.reachImplementation(named, call.iface, call.name)
			}
		}
	}
}

// reachImplementation reaches the methods of named that answer a call of name
// through it (of every method of it when name is empty) if named or its pointer
// implements it. A generic type or interface cannot be asked before it is
// instantiated (it is nil for a generic interface): those go by name alone.
func (g *reachGraph) reachImplementation(named *types.Named, it *types.Interface, name string) {
	ptr := types.NewPointer(named)
	if it != nil && named.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
		return
	}
	mset := types.NewMethodSet(ptr)
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func)
		called := m.Name() == name
		for j := 0; name == "" && j < it.NumMethods(); j++ {
			called = called || it.Method(j).Name() == m.Name()
		}
		if called {
			g.reach(m.Origin())
		}
	}
}

// visit follows every identifier in obj's declaration.
func (g *reachGraph) visit(obj types.Object) {
	switch obj := obj.(type) {
	case *types.TypeName:
		if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
			g.types = append(g.types, named)
		}
	case *types.Var, *types.Const:
		// `const B` in an iota group repeats a type its spec does not spell.
		if named := namedOf(obj.Type()); named != nil {
			g.reach(named.Obj())
		}
	}
	decl := g.decls[obj]
	if decl == nil {
		return // an interface's method, reached through a struct that embeds the interface
	}
	info := g.info[obj.Pkg()]
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch used := info.Uses[id].(type) {
		case *types.Func:
			used = used.Origin()
			if recv := used.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				it := recv.Type().Underlying().(*types.Interface)
				if named := namedOf(recv.Type()); named != nil && named.TypeParams().Len() > 0 {
					it = nil
				}
				g.dynamic[dynamicCall{it, used.Name()}] = true
				return true
			}
			g.reach(used)
		case *types.TypeName:
			g.reach(used)
		case *types.Var:
			if !used.IsField() && used.Parent() == used.Pkg().Scope() {
				g.reach(used)
			}
		case *types.Const:
			if used.Parent() == used.Pkg().Scope() {
				g.reach(used)
			}
		}
		return true
	})
}
