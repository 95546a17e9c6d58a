// Package analysis is a self-contained, stdlib-only miniature of
// golang.org/x/tools/go/analysis: just enough framework to write
// repo-specific vet rules (see noclock.go, hotpath.go, snapshot.go,
// metriclabel.go, reach.go) and run them over type-checked packages.
//
// The x/tools module is deliberately not a dependency — the repo builds
// offline with the bare toolchain — so the few pieces duetvet needs
// (Analyzer/Pass/Diagnostic, cross-package facts, suppression comments)
// are reimplemented here against go/ast and go/types.
//
// Two comment directives drive the suite:
//
//	//duet:hotpath
//	    on the doc comment of a function marks it a dataplane hot-path
//	    root; the hotpath analyzer checks it and everything it
//	    statically calls (see hotpath.go).
//
//	//duet:allow <rule> <reason>
//	    suppresses diagnostics of <rule> on the same line, or on the
//	    line immediately below when the comment stands alone. The reason
//	    is mandatory: an escape hatch without a recorded justification
//	    is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named rule.
type Analyzer struct {
	// Name identifies the rule in output and in //duet:allow comments.
	Name string
	// Doc is a one-paragraph description, shown by duetvet -help.
	Doc string
	// Run analyzes one package. Packages are presented in dependency
	// order, so facts exported by a dependency are visible here.
	Run func(*Pass) error
	// Finish, when set, runs once after Run has been given every package:
	// the hook for a rule about the module as a whole (reach). It reports
	// through the Passes its Run kept, so //duet:allow applies as usual.
	Finish func()
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ModulePkgs reports whether an import path belongs to the analysis
	// universe (the duet module for duetvet, the fixture tree for
	// analysistest). Rules that require callees to carry facts only
	// apply it to universe packages — external code cannot be annotated.
	ModulePkgs func(path string) bool

	facts   *FactStore
	allow   *allowIndex
	diags   *[]Diagnostic
	errDiag func(Diagnostic)
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an //duet:allow comment for
// this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact publishes a fact about a package-level object (or
// method) for passes over dependent packages. Facts are string-keyed by
// package path and object name, so an object re-imported from export
// data matches the one seen in source.
func (p *Pass) ExportObjectFact(obj types.Object, fact string) {
	p.facts.put(p.Analyzer.Name, ObjectKey(obj), fact)
}

// HasObjectFact reports whether fact was exported for obj by this
// analyzer during this run (possibly while analyzing a dependency).
func (p *Pass) HasObjectFact(obj types.Object, fact string) bool {
	return p.facts.has(p.Analyzer.Name, ObjectKey(obj), fact)
}

// ObjectKey names an object stably across source and export-data views
// of the same package: "path.Name" for package-level objects,
// "path.(Recv).Name" for methods.
func ObjectKey(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		// Generic instantiations share the origin's identity.
		fn = fn.Origin()
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			name := "?"
			if named, ok := recv.(*types.Named); ok {
				name = named.Obj().Name()
			}
			return pkg + ".(" + name + ")." + fn.Name()
		}
		return pkg + "." + fn.Name()
	}
	return pkg + "." + obj.Name()
}

// A FactStore carries exported facts across packages for one run of the
// suite. Keys are (analyzer, object, fact) triples.
type FactStore struct {
	m map[string]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[string]bool)} }

func (s *FactStore) put(analyzer, obj, fact string) {
	s.m[analyzer+"\x00"+obj+"\x00"+fact] = true
}

func (s *FactStore) has(analyzer, obj, fact string) bool {
	return s.m[analyzer+"\x00"+obj+"\x00"+fact]
}

// RunPackage runs each analyzer over one type-checked package,
// appending findings to diags. The caller presents packages in
// dependency order and reuses facts across calls. It returns how many
// well-formed //duet:allow directives the package's files carry, per
// rule: the escape hatch is itself a number duetvet reports and `make
// lint` only lets fall.
func RunPackage(
	analyzers []*Analyzer,
	fset *token.FileSet,
	files []*ast.File,
	pkg *types.Package,
	info *types.Info,
	modulePkgs func(string) bool,
	facts *FactStore,
	diags *[]Diagnostic,
) (map[string]int, error) {
	allow := buildAllowIndex(fset, files)
	for _, d := range allow.malformed {
		*diags = append(*diags, d)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			ModulePkgs: modulePkgs,
			facts:      facts,
			allow:      allow,
			diags:      diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path(), a.Name, err)
		}
	}
	return allow.sites, nil
}

// allowIndex maps file → line → set of rule names suppressed there, and
// counts the directives per rule.
type allowIndex struct {
	byFile    map[string]map[int][]string
	sites     map[string]int
	malformed []Diagnostic
}

// buildAllowIndex scans comments for //duet:allow directives. A
// directive suppresses its own line and the line below it, so both the
// trailing form (`code() //duet:allow rule reason`) and the standalone
// form (comment above the code) work.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{byFile: make(map[string]map[int][]string), sites: make(map[string]int)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//duet:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "allow",
						Message:  "//duet:allow needs a rule name and a reason",
					})
					continue
				}
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "allow",
						Message:  fmt.Sprintf("//duet:allow %s needs a reason", fields[0]),
					})
					continue
				}
				lines := idx.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					idx.byFile[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
				lines[pos.Line+1] = append(lines[pos.Line+1], fields[0])
				idx.sites[fields[0]]++
			}
		}
	}
	return idx
}

func (idx *allowIndex) allowed(rule string, pos token.Position) bool {
	for _, r := range idx.byFile[pos.Filename][pos.Line] {
		if r == rule {
			return true
		}
	}
	return false
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Finish runs the analyzers' Finish hooks. The caller invokes it once,
// after the last RunPackage and before it reads the findings.
func Finish(analyzers []*Analyzer) {
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish()
		}
	}
}

// Suite returns every duetvet analyzer. Reach keeps state between
// packages, so each call builds a fresh one: a Suite serves one run.
func Suite() []*Analyzer {
	return []*Analyzer{NoClock, HotPath, Snapshot, MetricLabel, NewReach()}
}

// calleeOf resolves the *types.Func statically called by a call
// expression, or nil for dynamic calls (interface methods resolve to
// their interface *types.Func — the caller decides what to do with
// those), conversions, and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// hasDirective reports whether a comment group contains the given
// //duet:... directive on a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}
