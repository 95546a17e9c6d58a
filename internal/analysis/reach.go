package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewReach returns the reachability rule: every exported func or method
// declared in a non-test file of an internal/ package must be referred to
// by some non-test file, from outside its own body. Code only its own
// tests reach is not a feature of the system; it is a second system that
// every refactor still has to carry.
//
// It is the one rule about the module as a whole: Run records, package by
// package, the declarations in scope, every func a non-test file refers
// to and every interface in sight; Finish reports the declarations nothing
// referred to. The driver therefore presents the whole module whatever
// packages were asked for, and bench/ — its own module, but a real caller
// of internal/ — for its references only.
//
// A method is exempt when it is part of what makes its receiver implement
// an interface declared in a package under analysis or in a standard
// library package one of them imports (heap.Interface, fmt.Stringer,
// error, a consumer-side interface in another internal package): such a
// method is called through the interface, which no identifier shows.
//
// A package whose non-test files import "testing" (leakcheck, analysistest)
// is test support: tests are the callers it was written for, and it is out
// of scope.
//
// The returned analyzer keeps state between packages; use it for one run.
func NewReach() *Analyzer {
	r := &reach{
		used:   make(map[string]bool),
		pooled: make(map[*types.Package]bool),
		ifaces: make(map[string][]*types.Interface),
	}
	r.poolInterface(types.Universe.Lookup("error"))
	return &Analyzer{
		Name: "reach",
		Doc: "flags exported funcs and methods of internal/ packages that no " +
			"non-test file refers to (outside their own body); methods that " +
			"satisfy a module or standard-library interface are exempt",
		Run:    r.run,
		Finish: r.finish,
	}
}

type reach struct {
	decls  []reachDecl
	used   map[string]bool // by ObjectKey: bench/ sees internal/ through export data
	pooled map[*types.Package]bool
	ifaces map[string][]*types.Interface // by method name
}

// A reachDecl is one declaration in scope, with the Pass that saw it: the
// Pass knows the file's //duet:allow lines and where findings go.
type reachDecl struct {
	pass *Pass
	fn   *types.Func
}

func (r *reach) run(pass *Pass) error {
	path := pass.Pkg.Path()
	inScope := pass.ModulePkgs(path) && strings.Contains(path+"/", "/internal/")
	var files []*ast.File
	for _, f := range pass.Files {
		// The driver never loads test files; a fixture tree does.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if imp.Path.Value == `"testing"` {
				inScope = false
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			var self *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if inScope && self != nil && fd.Name.IsExported() {
					r.decls = append(r.decls, reachDecl{pass, self})
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Origin() != self {
						r.used[ObjectKey(fn)] = true
					}
				}
				return true
			})
		}
	}
	r.poolPackage(pass.Pkg)
	for _, imp := range pass.Pkg.Imports() {
		if !pass.ModulePkgs(imp.Path()) {
			r.poolPackage(imp)
		}
	}
	return nil
}

// poolPackage adds a package's named interfaces to the exemption pool.
func (r *reach) poolPackage(pkg *types.Package) {
	if r.pooled[pkg] {
		return
	}
	r.pooled[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		r.poolInterface(scope.Lookup(name))
	}
}

func (r *reach) poolInterface(obj types.Object) {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return
	}
	if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
		return // a constraint or generic interface: nothing implements it uninstantiated
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		r.ifaces[name] = append(r.ifaces[name], iface)
	}
}

func (r *reach) finish() {
	for _, d := range r.decls {
		if r.used[ObjectKey(d.fn)] || r.viaInterface(d.fn) {
			continue
		}
		d.pass.Reportf(d.fn.Pos(),
			"exported %s has no caller outside tests: give it the caller it was written for, unexport it, or delete it with its tests",
			strings.TrimPrefix(ObjectKey(d.fn), d.fn.Pkg().Path()+"."))
	}
}

// viaInterface reports whether fn is a method some pooled interface asks
// for by name and fn's receiver (through a pointer, the larger method
// set) implements.
func (r *reach) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, iface := range r.ifaces[fn.Name()] {
		if types.Implements(t, iface) {
			return true
		}
	}
	return false
}
