// Package analysistest runs duetvet analyzers over fixture packages
// and checks their findings against expectations written in the
// fixtures themselves — a stdlib-only miniature of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <dir>/src/<pkg>/*.go. A line that should trigger
// a diagnostic carries a trailing comment of the form
//
//	// want `regexp`
//
// (multiple patterns mean multiple diagnostics on that line; patterns
// may also be double-quoted Go strings). Run fails the test for every
// diagnostic with no matching want and every want with no matching
// diagnostic.
package analysistest

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"duet/internal/analysis"
	"duet/internal/analysis/driver"
)

// Run type-checks the named fixture packages (dependencies first — the
// same contract the real driver gets from `go list -deps`), runs the
// analyzers over each with a shared fact store, and compares the
// diagnostics against the fixtures' want comments. It returns the number
// of well-formed //duet:allow directives per rule, as RunPackage counts
// them.
func Run(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgs ...string) map[string]int {
	t.Helper()

	fset := token.NewFileSet()
	fixtureSet := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		fixtureSet[p] = true
	}

	// Parse every fixture package up front so the stdlib side of the
	// import graph is known before type-checking begins.
	parsed := make(map[string][]*ast.File, len(pkgs))
	stdImports := make(map[string]bool)
	for _, p := range pkgs {
		files, err := parseFixture(fset, dir, p)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil && !fixtureSet[ip] {
					stdImports[ip] = true
				}
			}
		}
		parsed[p] = files
	}

	// Stdlib imports resolve from compiler export data;
	// fixture-to-fixture imports resolve against packages checked
	// earlier in the list.
	exports := map[string]string{}
	if len(stdImports) > 0 {
		std := make([]string, 0, len(stdImports))
		for ip := range stdImports {
			std = append(std, ip)
		}
		sort.Strings(std)
		m, err := driver.StdExports(std...)
		if err != nil {
			t.Fatalf("loading stdlib export data: %v", err)
		}
		exports = m
	}
	imp := driver.NewImporter(fset, exports)

	facts := analysis.NewFactStore()
	inFixtures := func(path string) bool { return fixtureSet[path] }
	var diags []analysis.Diagnostic
	allows := make(map[string]int)

	for _, p := range pkgs {
		files := parsed[p]
		info := driver.NewInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p, fset, files, info)
		if err != nil {
			t.Fatalf("fixture %s: typecheck: %v", p, err)
		}
		imp.Checked[p] = pkg
		sites, err := analysis.RunPackage(analyzers, fset, files, pkg, info, inFixtures, facts, &diags)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		for rule, n := range sites {
			allows[rule] += n
		}
	}
	analysis.Finish(analyzers)
	analysis.SortDiagnostics(diags)

	wants := parseWants(t, fset, parsed)
	for _, d := range diags {
		if !wants.match(d) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	wants.reportUnmatched(t)
	return allows
}

func parseFixture(fset *token.FileSet, dir, pkg string) ([]*ast.File, error) {
	pkgDir := filepath.Join(dir, "src", filepath.FromSlash(pkg))
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(pkgDir, e.Name()))
		}
	}
	sort.Strings(paths)
	return driver.ParseFiles(fset, paths)
}

// A want is one expected diagnostic: a pattern at a file:line.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

// wantPattern extracts `backquoted` or "double-quoted" patterns from
// the text after a want keyword.
var wantPattern = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants collects want expectations from every comment in the
// fixture files.
func parseWants(t *testing.T, fset *token.FileSet, parsed map[string][]*ast.File) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, files := range parsed {
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := fset.Position(c.Pos())
					rest := text[len("want "):]
					matches := wantPattern.FindAllStringSubmatch(rest, -1)
					if len(matches) == 0 {
						t.Fatalf("%s: want comment with no pattern", pos)
					}
					for _, m := range matches {
						pat := m[1]
						if pat == "" && m[2] != "" {
							if unq, err := strconv.Unquote(`"` + m[2] + `"`); err == nil {
								pat = unq
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						ws.wants = append(ws.wants, &want{
							file:    pos.Filename,
							line:    pos.Line,
							pattern: re,
						})
					}
				}
			}
		}
	}
	return ws
}

// match consumes the first unmatched want on the diagnostic's line
// whose pattern matches its message.
func (ws *wantSet) match(d analysis.Diagnostic) bool {
	for _, w := range ws.wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	for _, w := range ws.wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}
