// Subsystem-invariant passes. PRs 7–9 added the subsystems with the most
// dangerous implicit invariants — published-version immutability in MVCC
// storage, fsync-before-ack in the WAL, deadline propagation through the
// admission gate, and selection-vector discipline in the batch engine —
// and the four passes in this file machine-check them:
//
//   - snapmut: a published MVCC table version (storage.Table / storage.Index)
//     is immutable; only the allowlisted load/commit set may write its
//     fields. A stray mutation is a silent snapshot-isolation break the
//     differential oracle can only catch probabilistically;
//   - ctxflow: inside the serving path (server, exec, cbqt, storage), a
//     function that holds a ctx must pass it on — minting context.Background()
//     / context.TODO() or calling a context-less twin of a *Context API
//     severs the deadline/cancellation chain the overload story depends on;
//   - selvec: batch kernels index rows through the selection vector; a direct
//     Batch.Cols[c][i] outside the allowlisted kernel set reads rows a filter
//     already disqualified (the bug class TestBatchBoundaries exists to
//     catch dynamically);
//   - errdrop: a discarded error on the WAL/fsync/commit path converts
//     durability into data loss — every Sync/Close/append/rotate/commit
//     error in internal/storage must be consumed or justified.
package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// ---- snapmut -----------------------------------------------------------

// versionTypes are the MVCC table-version types of internal/storage whose
// published instances are immutable by design.
var versionTypes = map[string]bool{"Table": true, "Index": true}

// snapmutAllowed is the function set of internal/storage that is allowed to
// write version fields: the load-time index builder, which runs before
// serving starts, and the commit path, which writes only the private next
// version before the atomic head swap. Extending this list is a review
// decision, not a convenience.
var snapmutAllowed = map[string]bool{
	"buildIndexes": true, // load-time index builder (Finalize, end of WAL replay)
	"applyOps":     true, // commit path: writes the unpublished next version
}

// isStoragePkg reports whether pkg is this repository's internal/storage.
func isStoragePkg(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/storage")
}

var snapmut = &Analyzer{
	Name: "snapmut",
	Doc:  "forbid writes to published MVCC table-version fields outside the load/commit set",
	Run: func(p *Pass) {
		inStorage := isStoragePkg(p.Pkg)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if inStorage && snapmutAllowed[fd.Name.Name] {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							snapmutCheckWrite(p, lhs)
						}
					case *ast.IncDecStmt:
						snapmutCheckWrite(p, st.X)
					}
					return true
				})
			}
		}
	},
}

// snapmutCheckWrite reports lhs when it stores through a field of a version
// type. Element writes (x.Field[i] = v, incl. map stores) are flagged even
// through a value base — the slice/map backing store is shared with the
// published version — while a plain field store through a value copy only
// writes the local copy and is legal (Snapshot.Table stamps its view's ts
// exactly this way).
func snapmutCheckWrite(p *Pass, lhs ast.Expr) {
	expr := ast.Unparen(lhs)
	viaIndex := false
	for {
		switch v := expr.(type) {
		case *ast.IndexExpr:
			viaIndex = true
			expr = ast.Unparen(v.X)
			continue
		case *ast.StarExpr:
			expr = ast.Unparen(v.X)
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	sl, ok := p.Info.Selections[sel]
	if !ok || sl.Kind() != types.FieldVal {
		return
	}
	owner := namedOf(sl.Recv())
	if owner == nil || !versionTypes[owner.Obj().Name()] || !isStoragePkg(owner.Obj().Pkg()) {
		return
	}
	if !viaIndex {
		if _, ptr := sl.Recv().(*types.Pointer); !ptr {
			return // field store through a value copy mutates only the copy
		}
	}
	p.Report(lhs.Pos(), "write to %s.%s outside the MVCC load/commit set: published table versions are immutable; mutate an unpublished copy and swap the head", owner.Obj().Name(), sl.Obj().Name())
}

// namedOf strips one level of pointer and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ---- ctxflow -----------------------------------------------------------

// ctxPackages is the serving path: every deadline set at admission must
// reach the WAL fsync through these packages.
var ctxPackages = pathIn(
	"repro/internal/server",
	"repro/internal/exec",
	"repro/internal/cbqt",
	"repro/internal/storage",
)

var ctxflow = &Analyzer{
	Name:     "ctxflow",
	Doc:      "forbid severing the context chain: fresh root contexts or context-less twins called while a ctx is in scope",
	Packages: ctxPackages,
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ctxflowInspect(p, fd.Body, funcDeclHasCtx(p, fd))
			}
		}
	},
}

// ctxflowInspect walks one function body; hasCtx records whether any
// enclosing function (including via closure capture) has a context
// parameter in scope.
func ctxflowInspect(p *Pass, body *ast.BlockStmt, hasCtx bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			ctxflowInspect(p, v.Body, hasCtx || fieldListHasCtx(p, v.Type.Params))
			return false
		case *ast.CallExpr:
			if hasCtx {
				ctxflowCheckCall(p, v)
			}
		}
		return true
	})
}

func ctxflowCheckCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sigAcceptsCtx(sig) {
		// Mode A: the callee accepts a context, but the caller mints a
		// fresh root instead of passing the one in scope.
		for _, arg := range call.Args {
			if name := freshCtxCall(p.Info, arg); name != "" {
				p.Report(arg.Pos(), "context.%s() passed to %s while a ctx is in scope: the fresh root severs the deadline/cancellation chain", name, fn.Name())
			}
		}
		return
	}
	// Mode B: the callee takes no context, but a *Context twin exists —
	// calling the context-less form drops the in-scope ctx.
	if strings.HasSuffix(fn.Name(), "Context") || fn.Pkg() == nil {
		return
	}
	if sib := contextSibling(fn, sig); sib != nil {
		p.Report(call.Pos(), "call to %s drops the in-scope ctx: use %s so the deadline propagates", fn.Name(), sib.Name())
	}
}

// contextSibling returns the fn.Name()+"Context" twin (same package for
// functions, same receiver type for methods) when one exists and accepts a
// context, else nil.
func contextSibling(fn *types.Func, sig *types.Signature) *types.Func {
	want := fn.Name() + "Context"
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
		if m, ok := obj.(*types.Func); ok {
			if msig, ok := m.Type().(*types.Signature); ok && sigAcceptsCtx(msig) {
				return m
			}
		}
		return nil
	}
	if obj := fn.Pkg().Scope().Lookup(want); obj != nil {
		if m, ok := obj.(*types.Func); ok {
			if msig, ok := m.Type().(*types.Signature); ok && sigAcceptsCtx(msig) {
				return m
			}
		}
	}
	return nil
}

// freshCtxCall reports "Background" or "TODO" when arg is a direct call to
// that context constructor, else "".
func freshCtxCall(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

func isCtxType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func sigAcceptsCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func funcDeclHasCtx(p *Pass, fd *ast.FuncDecl) bool {
	return fieldListHasCtx(p, fd.Type.Params)
}

func fieldListHasCtx(p *Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isCtxType(tv.Type) {
			return true
		}
	}
	return false
}

// ---- selvec ------------------------------------------------------------

// selvecKernels are the batch-engine kernel functions allowed to index
// Batch.Cols[c][i] directly: each derives i from the selection vector (or
// builds the batch it writes). Keys are "Recv.Method" for methods. As with
// snapmut, extending the set is a review decision.
var selvecKernels = map[string]bool{
	"Batch.Row":                      true,
	"Batch.gather":                   true,
	"Batch.appendRow":                true,
	"batchSeqScanIter.NextBatch":     true,
	"batchIndexScanIter.NextBatch":   true,
	"batchNLJoinIter.emit":           true,
	"batchNLJoinIter.emitLeftPad":    true,
	"batchNLJoinIter.NextBatch":      true,
	"batchHashJoinIter.Open":         true,
	"batchHashJoinIter.onMatch":      true,
	"batchHashJoinIter.emitComb":     true,
	"batchHashJoinIter.emitLeftPad":  true,
	"batchHashJoinIter.emitRightPad": true,
}

var selvec = &Analyzer{
	Name:     "selvec",
	Doc:      "forbid direct Batch.Cols[c][i] row indexing outside allowlisted kernels; go through the selection vector",
	Packages: pathIn("repro/internal/exec"),
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if selvecKernels[funcKey(p, fd)] {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					outer, ok := n.(*ast.IndexExpr)
					if !ok {
						return true
					}
					inner, ok := ast.Unparen(outer.X).(*ast.IndexExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(inner.X).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					sl, ok := p.Info.Selections[sel]
					if !ok || sl.Kind() != types.FieldVal || sl.Obj().Name() != "Cols" {
						return true
					}
					owner := namedOf(sl.Recv())
					if owner == nil || owner.Obj().Name() != "Batch" || owner.Obj().Pkg() == nil ||
						!strings.HasSuffix(owner.Obj().Pkg().Path(), "internal/exec") {
						return true
					}
					p.Report(outer.Pos(), "direct Batch.Cols[c][i] indexing bypasses the selection vector: use Live/Row (or add the function to the kernel allowlist deliberately)")
					return true
				})
			}
		}
	},
}

// funcKey renders a FuncDecl as "Name" or "Recv.Name" using the checked
// receiver type, matching selvecKernels keys.
func funcKey(p *Pass, fd *ast.FuncDecl) string {
	obj, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return fd.Name.Name
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fd.Name.Name
	}
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name() + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// ---- errdrop -----------------------------------------------------------

// durabilityCallees are the method/function names on the WAL/fsync/commit
// path whose error results must be consumed: dropping one converts
// durability into data loss (an fsync error after ack is unrecoverable).
var durabilityCallees = map[string]bool{
	"Sync": true, "Close": true, "close": true, "append": true,
	"rotate": true, "commit": true, "Commit": true,
	"Truncate": true, "Flush": true,
}

var errdrop = &Analyzer{
	Name:     "errdrop",
	Doc:      "forbid discarding error results on WAL/fsync/commit call paths",
	Packages: pathIn("repro/internal/storage"),
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					errdropCheckCall(p, st.X, "")
				case *ast.GoStmt:
					errdropCheckCall(p, st.Call, "go ")
				case *ast.DeferStmt:
					errdropCheckCall(p, st.Call, "defer ")
				case *ast.AssignStmt:
					if len(st.Rhs) != 1 {
						return true
					}
					for _, l := range st.Lhs {
						if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
							return true // some result is consumed
						}
					}
					errdropCheckCall(p, st.Rhs[0], "")
				}
				return true
			})
		}
	},
}

// errdropCheckCall reports e when it is a durability-path call whose error
// result is being discarded.
func errdropCheckCall(p *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || !durabilityCallees[fn.Name()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named := namedOf(last)
	if named == nil || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return
	}
	p.Report(e.Pos(), "%serror from %s discarded on a durability path: a dropped fsync/commit error converts durability into data loss", how, fn.Name())
}
