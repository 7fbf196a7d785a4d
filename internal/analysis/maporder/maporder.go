// Package maporder flags Go's classic nondeterminism hazard in the
// packages that produce reports: ranging over a map while appending to
// an outer slice, writing output, or feeding order-sensitive sinks.
// Map iteration order is deliberately randomized by the runtime, so any
// such loop makes merged.json (and every golden report) differ between
// two identical runs — precisely the byte-identity the campaign engine
// and the paper's figures depend on.
//
// The deterministic idiom — collect keys, sort, then iterate the sorted
// slice — is recognized: an append inside a map range is waived when a
// later statement in the same function sorts the appended slice
// (sort.Strings/Ints/Slice/SliceStable/Sort or slices.Sort*).
// Commutative aggregation (sums, counter increments, writes into
// another map or set) is not flagged at all.
package maporder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"sslab/internal/analysis"
)

// Analyzer flags order-dependent consumption of map iteration in
// report-producing packages.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "forbid ranging over a map while appending to an outer slice " +
		"(unless it is sorted afterwards), printing, JSON-encoding, or " +
		"feeding order-sensitive sinks: map order is randomized and would " +
		"break report byte-identity",
	Scope: []string{
		"sslab",
		"sslab/cmd/...",
		"sslab/internal/campaign",
		"sslab/internal/capture",
		"sslab/internal/detector",
		"sslab/internal/experiment",
		"sslab/internal/fleet",
		"sslab/internal/gfw",
		"sslab/internal/metrics",
		"sslab/internal/netsim",
		"sslab/internal/probesim",
		"sslab/internal/reaction",
		"sslab/internal/replay",
		"sslab/internal/stats",
	},
	Run: run,
}

// printFuncs are the fmt functions that emit output (Sprint* only build
// strings, which is fine unless they feed a sink themselves).
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// sinkMethods are method names whose call order changes the result:
// stream writers and order-sensitive estimators (a streaming quantile
// estimator's state can depend on observation order).
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Observe": true,
}

func run(pass *analysis.Pass) error {
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, reported)
		}
	}
	return nil
}

// checkFunc inspects one function body: every range-over-map statement
// is checked for order-dependent sinks, with the function body itself
// the horizon for "sorted afterwards".
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !rangesOverMap(pass, rng) {
			return true
		}
		checkRange(pass, body, rng, reported)
		return true
	})
}

func rangesOverMap(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkRange walks one map-range body for order-dependent sinks.
func checkRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append(target, ...) building an outer slice in map order.
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if obj := pass.Info.Uses[id]; obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
					target := call.Args[0]
					if declaredOutside(pass, target, rng) && !sortedLater(pass, funcBody, rng, target) {
						report(call.Pos(),
							"append to %s inside a map range builds a slice in randomized map order; sort the keys first (or sort %s afterwards)",
							exprString(pass, target), exprString(pass, target))
					}
				}
			}
			return true
		}
		// fmt print family: output in map order.
		if name, sel, ok := pass.PkgFunc(call, "fmt"); ok && printFuncs[name] {
			report(sel.Sel.Pos(),
				"fmt.%s inside a map range emits output in randomized map order; iterate sorted keys instead", name)
			return true
		}
		// encoding/json: serialization driven from inside a map range.
		if name, sel, ok := pass.PkgFunc(call, "encoding/json"); ok {
			report(sel.Sel.Pos(),
				"json.%s inside a map range serializes in randomized map order; iterate sorted keys instead", name)
			return true
		}
		// Order-sensitive method sinks (writers, P²-style estimators).
		if se, ok := call.Fun.(*ast.SelectorExpr); ok && sinkMethods[se.Sel.Name] {
			if _, isSel := pass.Info.Selections[se]; isSel {
				report(se.Sel.Pos(),
					"%s call inside a map range feeds an order-sensitive sink in randomized map order; iterate sorted keys instead", se.Sel.Name)
			}
		}
		return true
	})
}

// declaredOutside reports whether the append target is state that
// outlives one loop iteration: a selector (field), an index expression,
// or an identifier declared before the range statement. A slice
// declared inside the body is rebuilt every iteration and carries no
// cross-iteration order.
func declaredOutside(pass *analysis.Pass, target ast.Expr, rng *ast.RangeStmt) bool {
	switch t := target.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[t]
		if obj == nil {
			obj = pass.Info.Defs[t]
		}
		if obj == nil {
			return true // unresolved: be conservative
		}
		return obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End()
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.CallExpr, *ast.CompositeLit:
		// append(nilSliceLiteral, ...) or append(f(), ...): fresh value,
		// no cross-iteration order.
		return false
	default:
		return true
	}
}

// sortedLater reports whether a statement after the range, anywhere in
// the function body, sorts the append target — the collect-then-sort
// idiom.
func sortedLater(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, target ast.Expr) bool {
	want := exprString(pass, target)
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if exprString(pass, arg) == want {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes the standard sorting entry points.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if name, _, ok := pass.PkgFunc(call, "sort"); ok {
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	}
	if name, _, ok := pass.PkgFunc(call, "slices"); ok {
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// exprString renders an expression for identity comparison and
// diagnostics.
func exprString(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return ""
	}
	return buf.String()
}
