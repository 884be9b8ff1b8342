// Package bitbail proves the fast-decode bail contract: in the
// multi-symbol kernel (decodeFast in internal/flate, generic over the
// cell type, and any other decodeFast* function), a fastBail return
// must leave the bit reader positioned at the start of the offending
// token so the scalar loop re-decodes it canonically. That means no Consume call may execute
// for the current token before a bail return. Consume is matched by
// name, so the kernel's by-value bitio.Cursor (c = c.Consume(k)) is
// checked like a *bitio.Reader.
//
// The check walks backward from each bail return through the
// statements that must have executed before it, stopping at the
// enclosing loop boundary (statements from previous iterations
// consumed bits for previous, fully emitted tokens — that is legal).
// A preceding statement only counts if bits it consumes can reach the
// bail return: a branch that consumes and then continues the loop
// (the split-literal budget path) emitted its token and never flows
// into a bail.
package bitbail

import (
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the bitbail pass.
var Analyzer = &analysis.Analyzer{
	Name: "bitbail",
	Doc: "check that fast-kernel bail returns precede any bit Consume " +
		"for the failing token, so the scalar loop can re-decode it",
	Run: run,
}

// run checks every function whose name marks it as a fast kernel.
func run(pass *analysis.Pass) error {
	analysis.ForEachFunc(pass, func(fs analysis.FuncScope) {
		if !strings.HasPrefix(fs.Name, "decodeFast") {
			return
		}
		checkKernel(pass, fs)
	})
	return nil
}

// isBailReturn reports whether ret's results mention a bail status
// (an identifier named fastBail, FastInvalid, or any *Bail constant).
func isBailReturn(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok {
			if id.Name == "FastInvalid" || strings.HasSuffix(id.Name, "Bail") || strings.HasSuffix(id.Name, "bail") {
				return true
			}
		}
	}
	return false
}

// isConsumeCall matches <reader>.Consume(...) calls.
func isConsumeCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Consume"
}

func containsConsume(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && isConsumeCall(call) {
			found = true
		}
		return !found
	})
	return found
}

func checkKernel(pass *analysis.Pass, fs analysis.FuncScope) {
	// Walk with an explicit ancestor stack so each bail return can see
	// the statements guaranteed to have run before it.
	var stack []ast.Node
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if ret, ok := n.(*ast.ReturnStmt); ok && isBailReturn(ret) {
			checkBail(pass, fs, stack, ret)
		}
		return true
	})
}

// checkBail walks outward from the bail return. At each enclosing
// statement list it scans the preceding siblings for a reachable
// Consume; it stops when the list is a loop body, because everything
// before the loop iteration belongs to previous tokens.
func checkBail(pass *analysis.Pass, fs analysis.FuncScope, stack []ast.Node, ret *ast.ReturnStmt) {
	child := ast.Node(ret)
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.BlockStmt:
			// A switch/select body block holds the other CaseClauses:
			// those are alternatives, not predecessors.
			isCaseList := false
			if i > 0 {
				switch stack[i-1].(type) {
				case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
					isCaseList = true
				}
			}
			if !isCaseList && scanSiblings(pass, p.List, child, ret) {
				return
			}
			// The loop body block: previous iterations are fair game.
			if i > 0 {
				switch stack[i-1].(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					return
				}
			}
		case *ast.CaseClause:
			if scanSiblings(pass, p.Body, child, ret) {
				return
			}
		case *ast.CommClause:
			if scanSiblings(pass, p.Body, child, ret) {
				return
			}
		case *ast.IfStmt:
			// Init statement and condition run before the branch body.
			if p.Init != nil && containsConsume(p.Init) {
				report(pass, ret)
				return
			}
			if p.Cond != nil && containsConsume(p.Cond) {
				report(pass, ret)
				return
			}
		case *ast.SwitchStmt:
			if p.Init != nil && containsConsume(p.Init) || p.Tag != nil && containsConsume(p.Tag) {
				report(pass, ret)
				return
			}
		}
		child = stack[i]
	}
}

// scanSiblings checks the statements before child in list; it returns
// true when a reachable Consume was found and reported.
func scanSiblings(pass *analysis.Pass, list []ast.Stmt, child ast.Node, ret *ast.ReturnStmt) bool {
	for _, s := range list {
		if s == child {
			return false
		}
		if consumeLeaks(s) {
			report(pass, ret)
			return true
		}
	}
	return false
}

func report(pass *analysis.Pass, ret *ast.ReturnStmt) {
	pass.Reportf(ret.Pos(), "bail return after bits were consumed for this token: the scalar loop would re-decode from the wrong bit position")
}

// consumeLeaks reports whether executing s can consume bits AND then
// exit s normally (so the consumed bits reach a statement after s). A
// branch that consumes and then terminates — like the split-literal
// path that Consumes and continues the loop — emitted its token and
// never flows into a bail return.
func consumeLeaks(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return false // never exits normally
	case *ast.IfStmt:
		if x.Init != nil && containsConsume(x.Init) || containsConsume(x.Cond) {
			return true
		}
		if blockLeaks(x.Body.List) {
			return true
		}
		if x.Else != nil {
			return consumeLeaks(x.Else)
		}
		return false
	case *ast.BlockStmt:
		return blockLeaks(x.List)
	case *ast.SwitchStmt:
		if x.Init != nil && containsConsume(x.Init) || x.Tag != nil && containsConsume(x.Tag) {
			return true
		}
		for _, cs := range x.Body.List {
			if clause, ok := cs.(*ast.CaseClause); ok && blockLeaks(clause.Body) {
				return true
			}
		}
		return false
	case *ast.ForStmt, *ast.RangeStmt, *ast.LabeledStmt, *ast.SelectStmt, *ast.TypeSwitchStmt:
		// A loop (or anything with complex control flow) that contains a
		// Consume may consume and still exit: conservative.
		return containsConsume(s)
	default:
		return containsConsume(s)
	}
}

// blockLeaks scans a statement list in order: a consuming statement
// marks a potential leak, a terminating statement before the end means
// the list never exits normally.
func blockLeaks(list []ast.Stmt) bool {
	leak := false
	for _, s := range list {
		if consumeLeaks(s) {
			leak = true
		}
		if analysis.Terminates(s) {
			return false
		}
	}
	return leak
}
