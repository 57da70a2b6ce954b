// Package poolcheck defines the leadervet analyzer enforcing the
// pooled-value ownership contracts of the wire plane: values obtained
// from the pooled codecs (GetCarrier, GetLeaderSnapshot, the transport's
// buffer and scratch pools) must be released exactly once on every
// control-flow path, and never used after release.
//
// The contracts are declared with two function directives:
//
//	//leadervet:acquires [i]   — the caller receives ownership of
//	                             result i (default 0) and must release
//	                             it on every path
//	//leadervet:releases name  — calling this function consumes the
//	                             argument bound to parameter (or
//	                             receiver) name; it no longer needs
//	                             releasing, and must not be used again
//
// Both are exported as facts, so callers in other packages are checked
// against contracts declared next to the pool implementations.
//
// Ownership can leave a function legitimately: returning the value
// (the enclosing function must itself be //leadervet:acquires),
// storing it into a struct/slice/map/channel, capturing it in a
// closure, or passing the line through //leadervet:handoff (an
// explicit, audited transfer — a receive ring slot pinning its buffer).
// After any of these the analyzer stops tracking; the receiving
// structure's discipline is covered by its own annotations and tests.
//
// The analysis is per-function over the control-flow graph, tracking
// one acquired variable at a time: definitely-live, definitely-
// released, or maybe-both (a path-dependent state, reported when it
// can leak). _test.go files are exempt — harnesses legitimately retain
// messages for inspection, and the pools degrade gracefully to
// allocation.
package poolcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"stableleader/internal/analysis/directive"
)

// Analyzer is the poolcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "poolcheck",
	Doc:       "check that pooled values (//leadervet:acquires) are released exactly once on every path and never used after release",
	URL:       "https://pkg.go.dev/stableleader/internal/analysis/poolcheck",
	Requires:  []*analysis.Analyzer{ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*acquiresFact)(nil), (*releasesFact)(nil)},
	Run:       run,
}

// acquiresFact marks a function whose result Result transfers pool
// ownership to the caller.
type acquiresFact struct{ Result int }

func (*acquiresFact) AFact()           {}
func (f *acquiresFact) String() string { return fmt.Sprintf("acquires(%d)", f.Result) }

// releasesFact marks a function that consumes pooled arguments.
// Indices are parameter positions; -1 is the method receiver.
type releasesFact struct{ Indices []int }

func (*releasesFact) AFact()           {}
func (f *releasesFact) String() string { return fmt.Sprintf("releases%v", f.Indices) }

// ownership state bits for the tracked value.
const (
	stLive = 1 << iota // acquired, not yet released
	stRel              // released
	stEsc              // ownership transferred elsewhere; tracking over
)

func run(pass *analysis.Pass) (interface{}, error) {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	lines := make(map[*token.File]*directive.Lines)
	for _, f := range pass.Files {
		lines[pass.Fset.File(f.Pos())] = directive.FileLines(pass.Fset, f)
	}
	lineDir := func(pos token.Pos, name string) bool {
		return lines[pass.Fset.File(pos)].Has(pos, name)
	}

	// Pass 1: collect and export the package's own contracts.
	local := map[*types.Func]*contracts{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c := &contracts{}
			if d, ok := directive.Find(fd.Doc, "acquires"); ok {
				idx := 0
				if len(d.Args) > 0 {
					if i, err := strconv.Atoi(d.Args[0]); err == nil {
						idx = i
					} else {
						pass.Reportf(d.Pos, "leadervet:acquires argument %q is not a result index", d.Args[0])
					}
				}
				c.acquires = &acquiresFact{Result: idx}
				pass.ExportObjectFact(obj, c.acquires)
			}
			for _, d := range directive.Parse(fd.Doc) {
				if d.Name != "releases" {
					continue
				}
				if c.releases == nil {
					c.releases = &releasesFact{}
				}
				for _, name := range d.Args {
					i, ok := bindingIndex(obj, fd, name)
					if !ok {
						pass.Reportf(d.Pos, "leadervet:releases on %s names unknown parameter %q", fd.Name.Name, name)
						continue
					}
					c.releases.Indices = append(c.releases.Indices, i)
				}
			}
			if c.releases != nil && len(c.releases.Indices) > 0 {
				pass.ExportObjectFact(obj, c.releases)
			}
			if c.acquires != nil || c.releases != nil {
				local[obj] = c
			}
		}
	}

	oracle := &oracle{pass: pass, local: local}

	// Pass 2: analyze every function body.
	for _, file := range pass.Files {
		if directive.InTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := cfgs.FuncDecl(fd)
			if g == nil {
				continue
			}
			checkFunc(pass, oracle, fd, g, lineDir)
		}
	}
	return nil, nil
}

type contracts struct {
	acquires *acquiresFact
	releases *releasesFact
}

// oracle answers contract queries for local and imported functions.
type oracle struct {
	pass  *analysis.Pass
	local map[*types.Func]*contracts
}

func (o *oracle) acquires(fn *types.Func) (*acquiresFact, bool) {
	if fn == nil {
		return nil, false
	}
	if c, ok := o.local[fn]; ok && c.acquires != nil {
		return c.acquires, true
	}
	var fact acquiresFact
	if o.pass.ImportObjectFact(fn, &fact) {
		return &fact, true
	}
	return nil, false
}

func (o *oracle) releases(fn *types.Func) (*releasesFact, bool) {
	if fn == nil {
		return nil, false
	}
	if c, ok := o.local[fn]; ok && c.releases != nil {
		return c.releases, true
	}
	var fact releasesFact
	if o.pass.ImportObjectFact(fn, &fact) {
		return &fact, true
	}
	return nil, false
}

// bindingIndex resolves a directive name to the receiver (-1) or a
// parameter index of fd.
func bindingIndex(fn *types.Func, fd *ast.FuncDecl, name string) (int, bool) {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		for _, n := range fd.Recv.List[0].Names {
			if n.Name == name {
				return -1, true
			}
		}
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == name {
			return i, true
		}
	}
	return 0, false
}

// staticCallee resolves the called function object, if static.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// acquire is one tracked acquisition site.
type acquire struct {
	stmt            *ast.AssignStmt // the acquiring assignment
	obj             types.Object    // the variable holding the pooled value
	callee          *types.Func     // for diagnostics
	deferredRelease bool            // a defer releases it on every exit
}

// checkFunc analyzes one function body.
func checkFunc(pass *analysis.Pass, o *oracle, fd *ast.FuncDecl, g *cfg.CFG, lineDir func(token.Pos, string) bool) {
	funcAcquires := false
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if _, ok := o.acquires(obj); ok {
			funcAcquires = true
		}
	}

	// Collect acquire sites (and flag discarded acquisitions).
	var acquires []*acquire
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are independent scopes; see package doc
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if fn := staticCallee(pass, call); fn != nil {
					if _, ok := o.acquires(fn); ok && !lineDir(n.Pos(), "ignore") {
						pass.Reportf(n.Pos(), "result of %s is a pooled value (//leadervet:acquires) but is discarded: it leaks from the pool", fn.Name())
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pass, call)
			if fn == nil {
				return true
			}
			fact, ok := o.acquires(fn)
			if !ok {
				return true
			}
			if fact.Result >= len(n.Lhs) {
				return true
			}
			id, ok := n.Lhs[fact.Result].(*ast.Ident)
			if !ok || id.Name == "_" {
				if !lineDir(n.Pos(), "ignore") {
					pass.Reportf(n.Pos(), "pooled result %d of %s is discarded: it leaks from the pool", fact.Result, fn.Name())
				}
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return true
			}
			acquires = append(acquires, &acquire{stmt: n, obj: obj, callee: fn})
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	// Deferred releases cover every exit.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for _, a := range acquires {
			if releasesObj(pass, o, d.Call, a.obj) {
				a.deferredRelease = true
			}
		}
		return true
	})

	for _, a := range acquires {
		checkAcquire(pass, o, fd, g, a, funcAcquires, lineDir)
	}
}

// releasesObj reports whether call releases obj: obj appears as an
// argument (or receiver) the callee's releases contract covers.
func releasesObj(pass *analysis.Pass, o *oracle, call *ast.CallExpr, obj types.Object) bool {
	fn := staticCallee(pass, call)
	if fn == nil {
		return false
	}
	rel, ok := o.releases(fn)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	for _, idx := range rel.Indices {
		if idx == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if isObjExpr(pass, sel.X, obj) {
					return true
				}
			}
			continue
		}
		if sig.Variadic() && idx == sig.Params().Len()-1 {
			for i := idx; i < len(call.Args); i++ {
				if isObjExpr(pass, call.Args[i], obj) {
					return true
				}
			}
			continue
		}
		if idx < len(call.Args) && isObjExpr(pass, call.Args[idx], obj) {
			return true
		}
	}
	return false
}

// isObjExpr reports whether e is (a reslice of) the identifier obj:
// v, (v), v[:0], v[:n] all denote the same pooled allocation.
func isObjExpr(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj
}

// mentions reports whether the subtree mentions obj at all.
func mentions(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkAcquire runs the must-release dataflow for one acquisition.
func checkAcquire(pass *analysis.Pass, o *oracle, fd *ast.FuncDecl, g *cfg.CFG, a *acquire, funcAcquires bool, lineDir func(token.Pos, string) bool) {
	// IN state per block; fixpoint over the CFG.
	in := make(map[*cfg.Block]int)
	reported := map[string]bool{}
	reportf := func(pos token.Pos, format string, args ...interface{}) {
		if lineDir(pos, "ignore") {
			return
		}
		key := fmt.Sprintf("%d:%s", pos, format)
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos, format, args...)
	}

	// transfer applies one node's effect to the state. When report is
	// set, diagnostics are emitted (the final pass).
	transfer := func(n ast.Node, st int, report bool) int {
		if !mentions(pass, n, a.obj) {
			if as, ok := n.(*ast.AssignStmt); ok && as == a.stmt {
				// Defensive: the acquire statement always mentions obj.
				_ = as
			}
			return st
		}
		// The acquiring statement itself.
		if n == ast.Node(a.stmt) {
			if st&stLive != 0 && report {
				reportf(a.stmt.Pos(), "pooled value from %s reacquired before the previous one was released", a.callee.Name())
			}
			return stLive
		}
		if st == 0 || st == stEsc {
			// Not yet acquired on this path, or handed off on every
			// path. A mixed state (escaped on one path, live on
			// another) keeps tracking: the live component still needs a
			// release or escape of its own.
			return st
		}
		// Explicit handoff annotation on this line.
		if lineDir(n.Pos(), "handoff") {
			return stEsc
		}
		// A deferred release runs at exit, not here: its effect is
		// modeled by deferredRelease, so the statement is a no-op now.
		if d, ok := n.(*ast.DeferStmt); ok && releasesObj(pass, o, d.Call, a.obj) {
			return st
		}

		released := st&stRel != 0 && st&stLive == 0

		// Classify every mention of obj inside the node.
		esc := false
		rel := false
		leakOverwrite := false
		var relPos, escPos, usePos token.Pos
		var escWhat string
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				if mentions(pass, c, a.obj) {
					esc, escPos, escWhat = true, c.Pos(), "captured by a closure"
				}
				return false
			case *ast.CallExpr:
				if releasesObj(pass, o, c, a.obj) {
					rel, relPos = true, c.Pos()
					return false // args of a releasing call are the release itself
				}
			case *ast.AssignStmt:
				for i, l := range c.Lhs {
					if !isObjExpr(pass, l, a.obj) || c == a.stmt {
						continue
					}
					// v = append(v, ...) and v = v[:n] keep the same
					// pooled allocation: tracking continues.
					if i < len(c.Rhs) && isSelfUpdate(pass, c.Rhs[i], a.obj) {
						continue
					}
					// Reassignment: the live pooled value would be
					// overwritten and leak.
					leakOverwrite, escPos = true, c.Pos()
					escWhat = "overwritten by reassignment"
				}
				for _, r := range c.Rhs {
					if isObjExpr(pass, r, a.obj) && !isSelfAssign(pass, c, a.obj) {
						// Aliased or stored somewhere.
						esc, escPos, escWhat = true, c.Pos(), "stored or aliased"
					}
				}
			case *ast.CompositeLit:
				if mentions(pass, c, a.obj) {
					esc, escPos, escWhat = true, c.Pos(), "stored in a composite literal"
				}
				return false
			case *ast.SendStmt:
				if mentions(pass, c.Value, a.obj) {
					esc, escPos, escWhat = true, c.Pos(), "sent on a channel"
				}
			case *ast.ReturnStmt:
				if mentions(pass, c, a.obj) {
					esc, escPos, escWhat = true, c.Pos(), "returned"
				}
			case *ast.Ident:
				if (pass.TypesInfo.Uses[c] == a.obj || pass.TypesInfo.Defs[c] == a.obj) && !usePos.IsValid() {
					usePos = c.Pos()
				}
			}
			return true
		})

		switch {
		case rel:
			if released && report {
				reportf(relPos, "pooled value from %s released twice", a.callee.Name())
			}
			if a.deferredRelease && report {
				reportf(relPos, "pooled value from %s released here and again by a deferred call", a.callee.Name())
			}
			return stRel
		case leakOverwrite:
			if st&stLive != 0 && report {
				reportf(escPos, "pooled value from %s overwritten before release: it leaks from the pool (release it first)", a.callee.Name())
			}
			return stEsc
		case esc:
			if released && report {
				reportf(escPos, "pooled value from %s used after release (%s)", a.callee.Name(), escWhat)
			}
			if escWhat == "returned" && !funcAcquires && report {
				reportf(escPos, "pooled value from %s returned by %s, which is not annotated //leadervet:acquires: the caller cannot know it must release it", a.callee.Name(), fd.Name.Name)
			}
			return stEsc
		default:
			if released && usePos.IsValid() && report {
				reportf(usePos, "pooled value from %s used after release", a.callee.Name())
			}
			return st
		}
	}

	runBlock := func(b *cfg.Block, st int, report bool) int {
		for _, n := range b.Nodes {
			st = transfer(n, st, report)
		}
		return st
	}

	// Fixpoint.
	for {
		changed := false
		for _, b := range g.Blocks {
			var st int
			if b == g.Blocks[0] {
				st = 0
			}
			for _, p := range predecessors(g, b) {
				st |= runBlock(p, in[p], false)
			}
			if st != in[b] {
				in[b] = st
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Reporting pass + exit check.
	leaked := false
	var leakKind string
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		out := runBlock(b, in[b], true)
		// The CFG builder materialises implicit returns, so every
		// normal exit ends in a ReturnStmt; exits without one are
		// panic/no-return paths, where pool hygiene is moot.
		if len(b.Succs) == 0 && b.Return() != nil && out&stLive != 0 && !a.deferredRelease {
			leaked = true
			if out&stRel != 0 {
				leakKind = "on some paths"
			} else if leakKind == "" {
				leakKind = "before this function returns"
			}
		}
	}
	if leaked {
		reportf(a.stmt.Pos(), "pooled value from %s is not released %s (release it, hand it off, or mark the transfer //leadervet:handoff)", a.callee.Name(), leakKind)
	}
}

// isSelfAppend reports whether e is append(v, ...) (or append(v[:0],
// ...)) for the tracked variable v — the grow-in-place idiom that keeps
// ownership with the same variable.
func isSelfAppend(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return isObjExpr(pass, call.Args[0], obj)
}

// isSelfUpdate reports whether e denotes the same pooled allocation as
// obj fed back to itself: append(v, ...) or a reslice v[:n].
func isSelfUpdate(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	if sl, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		return isObjExpr(pass, sl.X, obj)
	}
	return isSelfAppend(pass, e, obj)
}

// isSelfAssign reports whether stmt only moves obj back into itself
// (v = append(v, ...), v = v[:n]): not an alias or escape.
func isSelfAssign(pass *analysis.Pass, stmt *ast.AssignStmt, obj types.Object) bool {
	for i, l := range stmt.Lhs {
		if isObjExpr(pass, l, obj) && i < len(stmt.Rhs) && isSelfUpdate(pass, stmt.Rhs[i], obj) {
			return true
		}
	}
	return false
}

// predecessors returns the blocks with an edge into b.
func predecessors(g *cfg.CFG, b *cfg.Block) []*cfg.Block {
	var out []*cfg.Block
	for _, p := range g.Blocks {
		for _, s := range p.Succs {
			if s == b {
				out = append(out, p)
			}
		}
	}
	return out
}
