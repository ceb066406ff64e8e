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

	// Assertion helpers of tests in several packages.
	"internal/sparse.CSR.EqualApprox":          "matrix equality in the tests of sparse, graph, partition, factor, core and cmd/dtmgen",
	"internal/sparse.Vec.Equal":                "vector equality in the tests of nine packages",
	"internal/sparse.Vec.NormInf":              "residual and error norm in the tests of core, dense, factor, experiments and sparse",
	"internal/sparse.Vec.Sub":                  "error vector x − x* in the tests of factor, iterative, partition, dense, core and dist",
	"internal/sparse.CSR.IsDiagonallyDominant": "asserted on every generator's output and on EVS's default split",
	"internal/dense.Matrix.EqualApprox":        "matrix equality in the tests of dense and theory",

	// Fixtures of tests in several packages.
	"internal/sparse.Identity":        "the identity as an input of factor's, spectral's and sparse's tests",
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
	if len(mains) < 10 {
		t.Fatalf("found only %d main packages (%v): cmd/, examples/ and bench/dtmperf should give 10", len(mains), mains)
	}

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

const modulePath = "repro"

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
