// Package main implements this repository's custom static analyzers and a
// stdlib-only driver speaking the `go vet -vettool` protocol (the same
// unit-checker contract golang.org/x/tools implements; hand-rolled here so
// the tool builds with no dependencies outside the standard library).
//
// The passes enforce invariants the optimizer stack's tests rely on but
// cannot express locally:
//
//   - nodeterm: no wall-clock or global-randomness calls in deterministic
//     search paths (qtree, transform, optimizer, cbqt) — reproducible plans
//     and byte-identical traces depend on it;
//   - nakedassert: no single-result type assertions in exec/datum/planner
//     hot paths — a mis-shaped tree must surface as a typed error or a
//     deliberate panic message, not a bare runtime.TypeAssertionError;
//   - atomicmix: a field accessed through sync/atomic is never also read or
//     written plainly in the same package — mixed access is a data race the
//     race detector only catches when the interleaving happens;
//   - obsvreg: obsv registry names are compile-time constants (or built
//     from a constant prefix), so one logical counter cannot be registered
//     under drifting ad-hoc strings.
//
// A finding is suppressed by a `//lint:allow <analyzer> <justification>`
// comment on the flagged line or the line above it; the justification is
// mandatory.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string // import path with any " [pkg.test]" variant suffix stripped
	Report  func(pos token.Pos, format string, args ...any)
}

// Analyzer is one named pass. Packages returns whether the pass applies to
// an import path; nil means every package of this repository.
type Analyzer struct {
	Name     string
	Doc      string
	Packages func(path string) bool
	Run      func(*Pass)
}

// analyzers is the registry the driver runs, in reporting order. The first
// four are the PR 5 optimizer-stack passes; the last four (subsys.go) are
// the subsystem-invariant passes over MVCC storage, the WAL, context flow,
// and the batch engine.
var analyzers = []*Analyzer{
	nodeterm, nakedassert, atomicmix, obsvreg,
	snapmut, ctxflow, selvec, errdrop,
}

func pathIn(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, want := range paths {
			if p == want {
				return true
			}
		}
		return false
	}
}

// ---- nodeterm ----------------------------------------------------------

// detPackages are the deterministic search paths: every function of these
// packages may run under the CBQT state-space search, whose traces and
// chosen plans must be identical run to run.
var detPackages = pathIn(
	"repro/internal/qtree",
	"repro/internal/transform",
	"repro/internal/optimizer",
	"repro/internal/cbqt",
)

// bannedTime are the wall-clock entry points of package time. Reading the
// clock is allowed only behind a lint:allow with a justification (budget
// deadlines and observability timings qualify; plan decisions do not).
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRand are the math/rand package-level functions that do NOT touch
// the global shared source: constructing a seeded private source is the
// approved pattern for deterministic randomized search.
var allowedRand = map[string]bool{"New": true, "NewSource": true}

var nodeterm = &Analyzer{
	Name:     "nodeterm",
	Doc:      "forbid wall-clock and global-randomness calls in deterministic search paths",
	Packages: detPackages,
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (t.Sub, rng.Intn) are fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if bannedTime[fn.Name()] {
						p.Report(call.Pos(), "time.%s in a deterministic search path (package %s): plan choice and traces must not depend on the wall clock", fn.Name(), p.PkgPath)
					}
				case "math/rand", "math/rand/v2":
					if !allowedRand[fn.Name()] {
						p.Report(call.Pos(), "%s.%s uses the global random source in a deterministic search path: construct a seeded rand.New(rand.NewSource(seed)) instead", fn.Pkg().Path(), fn.Name())
					}
				}
				return true
			})
		}
	},
}

// calleeFunc resolves a call's target to a *types.Func, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ---- nakedassert -------------------------------------------------------

var hotPackages = pathIn(
	"repro/internal/exec",
	"repro/internal/datum",
	"repro/internal/optimizer",
	"repro/internal/transform",
	"repro/internal/server",
)

var nakedassert = &Analyzer{
	Name:     "nakedassert",
	Doc:      "forbid single-result type assertions in hot paths; use the comma-ok form",
	Packages: hotPackages,
	Run: func(p *Pass) {
		for _, f := range p.Files {
			// The comma-ok and type-switch forms are legal; collect the
			// assertion expressions they cover, then flag the rest.
			allowed := map[*ast.TypeAssertExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					if len(v.Lhs) == 2 && len(v.Rhs) == 1 {
						if ta, ok := ast.Unparen(v.Rhs[0]).(*ast.TypeAssertExpr); ok {
							allowed[ta] = true
						}
					}
				case *ast.ValueSpec:
					if len(v.Names) == 2 && len(v.Values) == 1 {
						if ta, ok := ast.Unparen(v.Values[0]).(*ast.TypeAssertExpr); ok {
							allowed[ta] = true
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok || ta.Type == nil || allowed[ta] {
					return true // Type == nil is x.(type) in a type switch
				}
				p.Report(ta.Pos(), "single-result type assertion in a hot path: use the comma-ok form and handle the mismatch (a mis-shaped tree must not surface as a bare TypeAssertionError)")
				return true
			})
		}
	},
}

// ---- atomicmix ---------------------------------------------------------

var atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc:  "forbid mixing sync/atomic access with plain loads/stores of the same field",
	Run: func(p *Pass) {
		type access struct {
			pos   token.Pos
			plain bool
		}
		// fieldAccesses maps each struct-field object to every selector
		// touching it; atomicArgs marks selectors that are the &-argument
		// of a sync/atomic call.
		fieldAccesses := map[*types.Var][]access{}
		atomicArgs := map[*ast.SelectorExpr]bool{}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
						if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
							atomicArgs[sel] = true
						}
					}
				}
				return true
			})
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sl, ok := p.Info.Selections[sel]
				if !ok || sl.Kind() != types.FieldVal {
					return true
				}
				fd, ok := sl.Obj().(*types.Var)
				if !ok || !fd.IsField() {
					return true
				}
				fieldAccesses[fd] = append(fieldAccesses[fd], access{pos: sel.Pos(), plain: !atomicArgs[sel]})
				return true
			})
		}
		for fd, accs := range fieldAccesses {
			hasAtomic := false
			for _, a := range accs {
				if !a.plain {
					hasAtomic = true
					break
				}
			}
			if !hasAtomic {
				continue
			}
			for _, a := range accs {
				if a.plain {
					p.Report(a.pos, "field %s is accessed with sync/atomic elsewhere in this package; this plain access races with it", fd.Name())
				}
			}
		}
	},
}

// ---- obsvreg -----------------------------------------------------------

// registryMethods are the obsv.Registry entry points whose name argument
// must be const-rooted. CounterValue is a read-side lookup and follows the
// same rule: a typo'd literal silently reads a counter nobody writes.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "CounterValue": true,
}

var obsvreg = &Analyzer{
	Name: "obsvreg",
	Doc:  "require obsv registry names to be constants or constant-prefixed expressions",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || !registryMethods[fn.Name()] || len(call.Args) == 0 {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil || !isObsvRegistry(sig.Recv().Type()) {
					return true
				}
				if !constRooted(p.Info, call.Args[0]) {
					p.Report(call.Args[0].Pos(), "obsv registry name is not a declared constant (or a constant-prefixed expression): ad-hoc strings drift and split one logical metric across names")
				}
				return true
			})
		}
	},
}

// isObsvRegistry reports whether t is (a pointer to) obsv.Registry.
func isObsvRegistry(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "obsv" || strings.HasSuffix(path, "/obsv")
}

// constRooted reports whether e is a constant expression, a reference to a
// declared constant, or a concatenation whose leftmost operand is
// const-rooted (the "const prefix + dynamic class" registration pattern).
func constRooted(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		return constRooted(info, bin.X)
	}
	return false
}

// ---- lint:allow suppression -------------------------------------------

// allowDirectives collects `//lint:allow <analyzer> <justification>`
// comments of a file, keyed by the line they apply to (their own line and
// the one below, so the directive can sit above the flagged statement).
func allowDirectives(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:allow") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
			if len(fields) < 2 {
				continue // a justification is mandatory; bare allows don't count
			}
			name := fields[0]
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if out[l] == nil {
					out[l] = map[string]bool{}
				}
				out[l][name] = true
			}
		}
	}
	return out
}

// diagnostic is one finding, carrying enough to render and to suppress.
type diagnostic struct {
	pos      token.Position
	analyzer string
	message  string
}

func (d diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.pos, d.analyzer, d.message)
}
