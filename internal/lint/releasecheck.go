package lint

import (
	"go/ast"
	"go/types"
)

// ReleaseCheck enforces the pooled-decoder ownership contract of
// rt/pool.go on call sites: a *rt.Decoder obtained from a call-shaped
// method (two results: *rt.Decoder, error) is borrowed from the
// decoder pool and must be
//
//   - released (d.Release()) somewhere in the acquiring function,
//     unless ownership is transferred by returning the decoder;
//   - released at most once on any straight-line path;
//   - never used after an unconditional release (the object may already
//     be carrying another call's reply); and
//   - never captured by a function literal that does not itself contain
//     the borrow. This is the promise/stream ownership contract: the
//     async and streaming surfaces hand closures to the runtime and to
//     user schedulers whose execution outlives the borrowing frame, so
//     a captured decoder is a latent use-after-release even when the
//     straight-line order looks safe. Decode values out of the chunk or
//     reply first and let the closure capture the copies.
//
// The check is flow-approximate rather than path-exact: it reasons
// about straight-line statement order inside each block and treats
// branches as independent, which matches the shapes the stub generator
// emits and keeps the analyzer dependency-free.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc:  "pooled rt.Decoder must be released exactly once and never used after release",
	Run:  runReleaseCheck,
}

func runReleaseCheck(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncReleases(pass, fn)
		}
	}
	return nil
}

// acquisition is one borrow of a pooled decoder within a function.
type acquisition struct {
	obj types.Object // the variable bound to the decoder
	pos ast.Node     // the acquiring statement
}

func checkFuncReleases(pass *Pass, fn *ast.FuncDecl) {
	var acquired []acquisition
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isDecoderCall(pass, call) {
			return true
		}
		if len(as.Lhs) != 2 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			acquired = append(acquired, acquisition{obj: obj, pos: as})
		}
		return true
	})

	for _, acq := range acquired {
		checkAcquisition(pass, fn, acq)
	}
}

// isDecoderCall reports whether call returns (*rt.Decoder, error) — the
// pool-borrowing shape of rt.Client.Do and compatible wrappers.
func isDecoderCall(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	tup, ok := tv.Type.(*types.Tuple)
	if !ok || tup.Len() != 2 {
		return false
	}
	if !isPtrToRT(tup.At(0).Type(), "Decoder") {
		return false
	}
	named, ok := tup.At(1).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func checkAcquisition(pass *Pass, fn *ast.FuncDecl, acq acquisition) {
	releases := 0
	returned := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isReleaseOf(pass, n, acq.obj) {
				releases++
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := r.(*ast.Ident); ok && pass.Info.Uses[id] == acq.obj {
					returned = true
				}
			}
		}
		return true
	})
	if releases == 0 && !returned {
		pass.Reportf(acq.pos.Pos(), "pooled decoder %s obtained here is never released (rt/pool.go contract: Release after unmarshal)", acq.obj.Name())
		return
	}
	// Straight-line double-release / use-after-release: inside every
	// block, statements after an unconditional (top-level) release must
	// not touch the decoder again.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		checkBlockAfterRelease(pass, block.List, acq.obj)
		return true
	})
	checkCallbackEscapes(pass, fn, acq)
	checkMethodValueEscapes(pass, fn, acq)
}

// checkMethodValueEscapes flags method values formed on a pooled
// decoder: `schedule(d.Bytes)` binds d into a func value exactly like a
// closure capture, but with no *ast.FuncLit for checkCallbackEscapes to
// see — the historical false negative. A selector on the decoder whose
// selection kind is MethodVal and which is not itself the function
// being called is such a binding; whoever holds the func can invoke it
// after the borrow ends.
func checkMethodValueEscapes(pass *Pass, fn *ast.FuncDecl, acq acquisition) {
	// Selectors in call position (d.U32BE() etc.) are ordinary method
	// calls, not bindings.
	called := map[ast.Expr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			called[call.Fun] = true
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || called[sel] {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != acq.obj {
			return true
		}
		if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			pass.Reportf(sel.Pos(), "method value %s.%s binds the pooled decoder beyond the borrow (it can be invoked after release — copy decoded values out instead)", acq.obj.Name(), sel.Sel.Name)
		}
		return true
	})
}

// checkCallbackEscapes flags references to a pooled decoder inside
// function literals that do not contain the borrow itself. The promise
// and stream surfaces hand closures to the runtime (marshal callbacks,
// resolution hooks) and user code hands chunk handlers to schedulers
// and goroutines; any of these may run after the acquiring frame has
// released the decoder back to the pool, at which point the capture
// reads another call's reply. The borrow-containing closure is exempt —
// a closure that performs its own call/decode/release cycle owns the
// decoder for its whole lifetime.
func checkCallbackEscapes(pass *Pass, fn *ast.FuncDecl, acq acquisition) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if containsNode(fl, acq.pos) {
			// The borrow lives inside this literal; its direct uses are
			// fine, but a deeper literal capturing the decoder is not.
			return true
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == acq.obj {
				pass.Reportf(id.Pos(), "pooled decoder %s captured by a function literal (promise/stream contract: the callback may run after release — copy decoded values out instead)", acq.obj.Name())
			}
			return true
		})
		// Uses in nested literals were just reported; don't descend and
		// report them again.
		return false
	}
	ast.Inspect(fn.Body, walk)
}

// containsNode reports whether outer's source range encloses inner.
func containsNode(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// isReleaseOf reports whether call is obj.Release().
func isReleaseOf(pass *Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pass.Info.Uses[id] == obj
}

// checkBlockAfterRelease scans one statement list: once a top-level
// obj.Release() statement executes, every later statement in the same
// list runs strictly after it, so any reference to obj there is a
// double release or a use-after-release.
func checkBlockAfterRelease(pass *Pass, stmts []ast.Stmt, obj types.Object) {
	releasedAt := -1
	for i, s := range stmts {
		if releasedAt >= 0 {
			reportUsesAfterRelease(pass, s, obj)
			continue
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && isReleaseOf(pass, call, obj) {
				releasedAt = i
			}
		}
		if ds, ok := s.(*ast.DeferStmt); ok && isReleaseOf(pass, ds.Call, obj) {
			// defer obj.Release() runs last; a later explicit release in
			// this function is a double release.
			for _, later := range stmts[i+1:] {
				ast.Inspect(later, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && isReleaseOf(pass, call, obj) {
						pass.Reportf(call.Pos(), "%s released here and again by the deferred release", obj.Name())
					}
					return true
				})
			}
		}
	}
}

// reportUsesAfterRelease flags every reference to obj inside stmt.
func reportUsesAfterRelease(pass *Pass, stmt ast.Stmt, obj types.Object) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isReleaseOf(pass, call, obj) {
			pass.Reportf(call.Pos(), "%s released twice (pooled decoders are released exactly once)", obj.Name())
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			pass.Reportf(id.Pos(), "use of %s after release (the decoder may already carry another call's reply)", obj.Name())
		}
		return true
	})
}
