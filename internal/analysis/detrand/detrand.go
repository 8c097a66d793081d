// Package detrand forbids nondeterminism in the repo's deterministic model
// packages. The paper's central experimental finding — and the property
// every differential test in this repo pins — is that undervolting faults
// are deterministic: the same die shows the same faulty bitcells at the same
// voltage, run after run. That only reproduces in simulation if all model
// randomness is a pure function of stable identifiers via internal/prng, so
// inside the model packages (silicon, bram, board, characterize, nn, fixed,
// cluster, prng, engine, ecc, dvfs, accel, fvm, placement, stats, dataset,
// voltage, power, thermal, pmbus, report, xdc, bitstream) and the
// experiments that drive them, this analyzer reports:
//
//   - time.Now — wall-clock input makes results differ run to run;
//   - any use of the global math/rand or math/rand/v2 generators — their
//     state is shared and call-order dependent;
//   - iteration over a map with order-dependent effects (appending to an
//     outer slice without sorting it afterwards, or accumulating into an
//     outer float) — Go randomizes map iteration order per run.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// modelPackages are the deterministic-model package names the analyzer
// scopes to (matched by last import-path segment or internal/<name>).
var modelPackages = []string{
	"silicon", "bram", "board", "characterize", "nn", "fixed", "cluster", "prng",
	"engine", "ecc", "dvfs", "experiments", "accel", "fvm", "placement", "stats",
	"dataset", "voltage", "power", "thermal", "pmbus", "report", "xdc", "bitstream",
}

// Analyzer is the detrand checker.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock, global math/rand, and map-iteration-order-dependent " +
		"output in deterministic model packages; randomness must flow through internal/prng seeds",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathScoped(pass.Path, modelPackages...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.SelectorExpr:
				checkGlobalRand(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	obj := analysis.Callee(pass.Info, call)
	if analysis.IsPkgFunc(obj, "time", "Now") {
		pass.Reportf(call.Pos(),
			"time.Now in deterministic model package %s: results must not depend on the wall clock", pass.Pkg.Name())
	}
}

// checkGlobalRand reports any reference to math/rand or math/rand/v2
// package-level functions or variables: both route through shared global
// state whose output depends on everything else the process drew.
func checkGlobalRand(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		pass.Reportf(sel.Pos(),
			"%s.%s in deterministic model package %s: derive randomness from internal/prng seeds, not math/rand",
			obj.Pkg().Name(), obj.Name(), pass.Pkg.Name())
	}
}

// checkMapRanges walks one function body looking for range-over-map loops
// whose effects depend on iteration order. It tracks the statements after
// each loop so the blessed collect-keys-then-sort idiom stays green.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	sorts := collectSortCalls(pass, body)
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != body {
				return true // function literals share the enclosing body's sort set
			}
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.Types[rs.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkOneMapRange(pass, rs, sorts)
			return true
		})
	}
	walk(body)
}

// sortCall is one "sort this slice" call site: sort.Strings(keys),
// sort.Slice(keys, ...), slices.Sort(keys), slices.SortFunc(keys, ...).
type sortCall struct {
	obj types.Object // the slice being sorted
	pos token.Pos
}

func collectSortCalls(pass *analysis.Pass, body *ast.BlockStmt) []sortCall {
	var out []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		obj := analysis.Callee(pass.Info, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if root := rootObj(pass.Info, call.Args[0]); root != nil {
			out = append(out, sortCall{obj: root, pos: call.Pos()})
		}
		return true
	})
	return out
}

func checkOneMapRange(pass *analysis.Pass, rs *ast.RangeStmt, sorts []sortCall) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			checkAppend(pass, rs, as, sorts)
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			checkFloatAccum(pass, rs, as)
		}
		return true
	})
}

// checkAppend flags `outer = append(outer, ...)` inside a map range unless
// the same slice is sorted later in the function — collecting keys (or
// values) and sorting them is the blessed deterministic idiom.
func checkAppend(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, sorts []sortCall) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" || pass.Info.Uses[fn] != types.Universe.Lookup("append") {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		target := rootObj(pass.Info, as.Lhs[i])
		if target == nil || declaredWithin(target, rs) {
			continue
		}
		for _, s := range sorts {
			if s.obj == target && s.pos > rs.End() {
				return // collected then sorted: deterministic
			}
		}
		pass.Reportf(as.Pos(),
			"append to %s inside map iteration: element order follows Go's randomized map order; sort %s after the loop or iterate a sorted key slice",
			target.Name(), target.Name())
	}
}

// checkFloatAccum flags `outer += f(v)` on float accumulators inside a map
// range: float addition is not associative, so the sum's low bits depend on
// visit order.
func checkFloatAccum(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 {
		return
	}
	target := rootObj(pass.Info, as.Lhs[0])
	if target == nil || declaredWithin(target, rs) {
		return
	}
	t := pass.Info.Types[as.Lhs[0]].Type
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	pass.Reportf(as.Pos(),
		"float accumulation into %s inside map iteration: float addition is order-dependent under Go's randomized map order; iterate sorted keys",
		target.Name())
}

// rootObj resolves the base identifier of an lvalue-ish expression
// (x, x.f, x[i] all resolve to x's object).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node's span
// (loop-local variables are order-dependent by construction and fine).
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}
