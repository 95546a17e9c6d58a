// Package driver loads type-checked packages for the duetvet analyzers
// without depending on golang.org/x/tools: it shells out to
// `go list -deps -export -json`, parses each module package from
// source, and satisfies imports from the compiler's export data via the
// standard library's gc importer.
package driver

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
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"duet/internal/analysis"
)

// listPackage is the subset of `go list -json` output the driver needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Vet runs the analyzers and returns the sorted findings in the packages
// matched by patterns (resolved in dir), with the number of //duet:allow
// directives per rule in those packages' files (`go list` names no test
// files, so tests are not counted).
//
// It always loads the whole module at dir, and after it the module in each
// referrers directory (bench/: its own module, but a caller of internal/),
// because a whole-module rule has to see every reference; findings and
// directive counts of packages outside patterns are dropped. Packages are
// type-checked from source in dependency order — the order `go list -deps`
// emits them — and import each other as checked, so cross-package facts
// flow from callees to callers and a type is one object wherever it is
// seen.
func Vet(dir string, patterns []string, analyzers []*analysis.Analyzer, referrers ...string) ([]analysis.Diagnostic, map[string]int, error) {
	selected, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	report := make(map[string]bool, len(selected))
	for _, p := range selected {
		report[p.ImportPath] = true
	}

	fset := token.NewFileSet()
	facts := analysis.NewFactStore()
	module := make(map[string]bool)
	inModule := func(path string) bool { return module[path] }
	var diags, dropped []analysis.Diagnostic
	allows := make(map[string]int)

	for _, moduleDir := range append([]string{dir}, referrers...) {
		targets, exports, err := listModule(moduleDir, module)
		if err != nil {
			return nil, nil, err
		}
		imp := NewImporter(fset, exports)
		for _, p := range targets {
			files, err := parseDir(fset, p.Dir, p.GoFiles)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", p.ImportPath, err)
			}
			info := NewInfo()
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(p.ImportPath, fset, files, info)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: typecheck: %w", p.ImportPath, err)
			}
			imp.Checked[p.ImportPath] = pkg
			out := &dropped
			if report[p.ImportPath] {
				out = &diags
			}
			sites, err := analysis.RunPackage(analyzers, fset, files, pkg, info, inModule, facts, out)
			if err != nil {
				return nil, nil, err
			}
			if report[p.ImportPath] {
				for rule, n := range sites {
					allows[rule] += n
				}
			}
		}
	}
	analysis.Finish(analyzers)
	analysis.SortDiagnostics(diags)
	return diags, allows, nil
}

// listModule lists the module at dir with its dependencies: the packages to
// type-check from source, in dependency order, and the export data of
// everything they import. It marks every non-standard package in module.
func listModule(dir string, module map[string]bool) (targets []*listPackage, exports map[string]string, err error) {
	pkgs, err := goList(dir, []string{"-deps", "./..."})
	if err != nil {
		return nil, nil, err
	}
	exports = make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard {
			continue
		}
		module[p.ImportPath] = true
		if !p.DepOnly {
			if p.Error != nil {
				return nil, nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// goList runs `go list -export -json <args>` in dir and decodes the
// package stream.
func goList(dir string, args []string) ([]*listPackage, error) {
	cmdArgs := append([]string{"list", "-export", "-json"}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// StdExports returns an export-data map for the named (typically
// standard-library) packages and their dependencies, for callers that
// type-check source outside a module — the analysistest fixture tree.
func StdExports(pkgs ...string) (map[string]string, error) {
	listed, err := goList("", append([]string{"-deps"}, pkgs...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// An Importer resolves an import path to the package the caller has
// already type-checked from source under that path (Checked, filled in
// dependency order), and otherwise through compiler export data.
type Importer struct {
	Checked map[string]*types.Package
	exports types.Importer
}

// NewImporter returns an Importer over the given export data files.
func NewImporter(fset *token.FileSet, exports map[string]string) *Importer {
	return &Importer{
		Checked: make(map[string]*types.Package),
		exports: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}
}

func (i *Importer) Import(path string) (*types.Package, error) {
	if p, ok := i.Checked[path]; ok {
		return p, nil
	}
	return i.exports.Import(path)
}

// NewInfo returns a types.Info populated with every map the analyzers
// consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// ParseFiles parses the named files (with comments, which carry the
// //duet: directives) and returns their ASTs.
func ParseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return ParseFiles(fset, paths)
}

// Patterns normalizes CLI args into go list patterns, defaulting to
// the whole tree.
func Patterns(args []string) []string {
	if len(args) == 0 {
		return []string{"./..."}
	}
	out := make([]string, 0, len(args))
	for _, a := range args {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
