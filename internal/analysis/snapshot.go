package analysis

import (
	"go/ast"
	"go/types"
)

// Snapshot enforces the copy-on-write snapshot discipline (PR 2): a
// value obtained from atomic.Pointer.Load() is an immutable published
// generation. Within a function the analyzer tracks variables bound to
// a Load() result (and aliases made by plain assignment) and flags:
//
//   - stores through the view: v.field = x, v.m[k] = x, *v = x,
//     delete(v.m, k) — mutating a published snapshot races with every
//     concurrent reader;
//   - republishing the same view: p.Store(v) / p.Swap(v) where v came
//     from a Load — copy-on-write means Store only ever takes a fresh
//     value (CompareAndSwap(old, new) may of course pass the loaded
//     value as old);
//   - element stores through a struct copy of the view: after
//     s := *p.Load() the copy's slice and map fields still alias the
//     published backing arrays, so s.f[i] = x, s.m[k] = x and
//     delete(s.m, k) are stores through the view until s.f has been
//     assigned a fresh value (s.f = slices.Clone(s.f)) earlier in the
//     function. Replacing a field of the copy outright is how the next
//     generation is derived and is never flagged.
//
// The analysis is intentionally local and alias-shallow: it follows
// direct assignments, not values laundered through calls or fields.
// That catches the mistake as it is actually written and never
// second-guesses legitimate builder code working on a fresh copy.
var Snapshot = &Analyzer{
	Name: "snapshot",
	Doc: "forbids stores through atomic.Pointer.Load() views and " +
		"re-Storing a loaded view (copy-on-write or nothing)",
	Run: runSnapshot,
}

func runSnapshot(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotFunc(pass, fd)
		}
	}
	return nil
}

// atomicPtrMethod reports whether call is a method call named name on a
// sync/atomic.Pointer[T] receiver.
func atomicPtrMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	if lockRecvName(fn.Origin()) != "Pointer" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func checkSnapshotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// views: local objects currently bound to a Load() result.
	views := make(map[types.Object]bool)
	// copies: local objects bound to a struct copy of a view (*Load()), each
	// with the fields assigned since — those no longer alias the view.
	copies := make(map[types.Object]map[string]bool)

	isViewExpr := func(e ast.Expr) bool {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				return views[obj]
			}
		}
		return false
	}
	// viewRoot unwraps selectors/indexes/derefs and reports whether the
	// root of the lvalue is a view variable — or a struct copy of one, reached
	// through an element (elem: delete's map argument is one by itself) of a
	// field the copy still shares with the view.
	viewRoot := func(e ast.Expr, elem bool) bool {
		e = ast.Unparen(e)
		field := ""
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				field, e = x.Sel.Name, ast.Unparen(x.X)
			case *ast.IndexExpr:
				elem, e = true, ast.Unparen(x.X)
			case *ast.StarExpr:
				e = ast.Unparen(x.X)
			case *ast.Ident:
				obj := info.Uses[x]
				fresh, isCopy := copies[obj]
				return obj != nil && (views[obj] || isCopy && elem && !fresh[field])
			default:
				return false
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// First: does this assignment create or alias a view?
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == nil {
						continue
					}
					rhs = ast.Unparen(rhs)
					star, deref := rhs.(*ast.StarExpr)
					switch {
					case isLoadCall(info, rhs), isViewExpr(rhs):
						views[obj] = true
					case deref && (isLoadCall(info, star.X) || isViewExpr(star.X)):
						copies[obj] = make(map[string]bool)
					default:
						// Rebinding to anything else clears the taint.
						delete(views, obj)
						delete(copies, obj)
					}
				}
			}
			// Second: is any LHS a store through a view?
			for _, lhs := range n.Lhs {
				switch x := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					// plain rebinding, handled above
				default:
					if viewRoot(lhs, false) {
						pass.Reportf(lhs.Pos(),
							"store through atomic.Pointer.Load() view in %s; snapshots are immutable — copy, mutate the copy, then Store",
							fd.Name.Name)
					} else if sel, ok := x.(*ast.SelectorExpr); ok {
						if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && copies[info.Uses[id]] != nil {
							copies[info.Uses[id]][sel.Sel.Name] = true // the copy's own from here on
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if _, plain := ast.Unparen(n.X).(*ast.Ident); !plain && viewRoot(n.X, false) {
				pass.Reportf(n.Pos(),
					"store through atomic.Pointer.Load() view in %s; snapshots are immutable — copy, mutate the copy, then Store",
					fd.Name.Name)
			}
		case *ast.CallExpr:
			// delete(v.m, k) mutates the view's map.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && viewRoot(n.Args[0], true) {
					pass.Reportf(n.Pos(),
						"delete on a map reached through atomic.Pointer.Load() view in %s",
						fd.Name.Name)
				}
			}
			// p.Store(v) / p.Swap(v) republishing the loaded view.
			if atomicPtrMethod(info, n, "Store", "Swap") && len(n.Args) == 1 {
				if isViewExpr(n.Args[0]) {
					pass.Reportf(n.Pos(),
						"Store of the previously Loaded view in %s; build a fresh copy instead (copy-on-write)",
						fd.Name.Name)
				}
			}
			// CompareAndSwap(old, new): new must not be the loaded view.
			if atomicPtrMethod(info, n, "CompareAndSwap") && len(n.Args) == 2 {
				if isViewExpr(n.Args[1]) {
					pass.Reportf(n.Pos(),
						"CompareAndSwap republishes the previously Loaded view in %s; build a fresh copy instead",
						fd.Name.Name)
				}
			}
		}
		return true
	})
}

// isLoadCall reports whether expr is a call to atomic.Pointer.Load.
func isLoadCall(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	return atomicPtrMethod(info, call, "Load")
}
