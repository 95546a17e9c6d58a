package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const allowSrc = `package p

func f() {
	a() //duet:allow noclock deadline needs wall time
	b()
	//duet:allow hotpath standalone form covers the next line
	c()
	d() //duet:allow snapshot
	e() //duet:allow
}

func a() {}
func b() {}
func c() {}
func d() {}
func e() {}
`

func TestAllowIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildAllowIndex(fset, []*ast.File{f})

	at := func(line int) token.Position {
		return token.Position{Filename: "allow.go", Line: line}
	}
	// Trailing form: own line suppressed, and the line below it too.
	if !idx.allowed("noclock", at(4)) {
		t.Error("trailing allow does not cover its own line")
	}
	if !idx.allowed("noclock", at(5)) {
		t.Error("trailing allow does not cover the next line")
	}
	// Standalone form: the line below the comment.
	if !idx.allowed("hotpath", at(7)) {
		t.Error("standalone allow does not cover the next line")
	}
	// Wrong rule or uncovered line: not suppressed.
	if idx.allowed("noclock", at(7)) {
		t.Error("allow leaked across rules")
	}
	if idx.allowed("hotpath", at(4)) {
		t.Error("allow leaked across lines")
	}

	// Well-formed directives are counted per rule: the number duetvet
	// prints and `make lint` ratchets. Malformed ones are findings instead.
	if len(idx.sites) != 2 || idx.sites["noclock"] != 1 || idx.sites["hotpath"] != 1 {
		t.Errorf("sites = %v, want one noclock and one hotpath", idx.sites)
	}

	// Missing reason and missing rule are malformed, each reported once.
	if len(idx.malformed) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2: %v", len(idx.malformed), idx.malformed)
	}
	if got := idx.malformed[0].Message; got != "//duet:allow snapshot needs a reason" {
		t.Errorf("malformed[0] = %q", got)
	}
	if got := idx.malformed[1].Message; got != "//duet:allow needs a rule name and a reason" {
		t.Errorf("malformed[1] = %q", got)
	}
}
