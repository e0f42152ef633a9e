package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Sentinel enforces the typed-error contract around the sentinels
// introduced in PR 4 (core.ErrUncorrectable, ErrChipFailed,
// ErrMigrationInProgress, ErrBlockDisabled, and friends):
//
//   - err == ErrX / err != ErrX and switch err { case ErrX: } are
//     banned in favour of errors.Is — every sentinel in this codebase is
//     wrapped with %w at least once (block numbers, band indices), so
//     identity comparison silently stops matching.
//   - matching on err.Error() strings (==, != or strings.Contains and
//     friends) is banned outright.
//   - dropping the error result of a persistence-critical call (journal
//     appends, band migration, degraded-mode transitions) — via a bare
//     expression statement, assignment to _, or go/defer — is flagged:
//     these errors are the crash-consistency story.
//
// Unlike the concurrency analyzers, sentinel applies to _test.go files
// too: sentinel misuse rots fastest in tests, where a wrapped error
// makes an == comparison silently pass the failure path.
var Sentinel = &Analyzer{
	Name: "sentinel",
	Doc:  "errors.Is over ==/string matching; no dropped persistence-critical errors",
	Run:  runSentinel,
}

// persistenceCritical lists calls whose error results must not be
// discarded, matched by package-path suffix.
var persistenceCritical = []struct {
	pkgSuffix, typeName string
	methods             map[string]bool
}{
	{"internal/guard", "Journal", map[string]bool{
		"AppendStart": true, "AppendBand": true, "AppendDone": true,
	}},
	{"internal/guard", "Supervisor", map[string]bool{
		"Tick": true, "Run": true,
	}},
	{"internal/core", "Controller", map[string]bool{
		"MigrateBand": true, "RedoBand": true, "EnterDegradedMode": true,
	}},
	{"internal/engine", "Engine", map[string]bool{
		"MigrateBand": true, "RedoBand": true, "EnterDegradedMode": true, "BeginMigration": true,
	}},
	// Fleet calls: a dropped Tick error loses a rank's journal-append
	// failure, a dropped RepairChip error loses the no-replica fallback
	// signal, and a dropped ReplicateBand error silently leaves a band
	// unmirrored that the caller believes is protected.
	{"internal/fleet", "Fleet", map[string]bool{
		"Tick": true, "RepairChip": true, "ReplicateBand": true,
	}},
}

func isPersistenceCritical(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	for _, set := range persistenceCritical {
		if set.methods[fn.Name()] && methodOn(fn, set.pkgSuffix, set.typeName, fn.Name()) {
			return true
		}
	}
	return false
}

// isSentinelIdent reports whether e names a package-level error
// variable following the ErrX convention.
func isSentinelIdent(info *types.Info, e ast.Expr) bool {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	if v.Parent() == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	return isErrorType(v.Type())
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorInterface)
}

var errorInterface = func() *types.Interface {
	// error's method set, built by hand so no import of anything is
	// needed: interface { Error() string }.
	sig := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	iface := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Error", sig),
	}, nil)
	iface.Complete()
	return iface
}()

// isErrorCall reports whether e is a call of the Error() string method
// on an error value.
func isErrorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	recv := info.Types[sel.X].Type
	return recv != nil && isErrorType(recv)
}

func runSentinel(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
					a, b := pair[0], pair[1]
					if isSentinelIdent(info, b) && !isNilExpr(info, a) {
						pass.Reportf(n.Pos(),
							"sentinel compared with %s: use errors.Is(err, %s) so wrapped errors still match",
							n.Op, exprName(b))
						break
					}
					if isErrorCall(info, a) && isStringExpr(info, b) {
						pass.Reportf(n.Pos(),
							"error matched by string comparison: use errors.Is or errors.As")
						break
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tagType := info.Types[n.Tag].Type
				if tagType == nil || !isErrorType(tagType) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if isSentinelIdent(info, e) {
							pass.Reportf(e.Pos(),
								"sentinel in switch case: use errors.Is(err, %s) so wrapped errors still match",
								exprName(e))
						}
					}
				}
			case *ast.CallExpr:
				// strings.Contains/HasPrefix/HasSuffix/EqualFold over
				// err.Error().
				fn := calleeOf(info, n)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "strings" {
					switch fn.Name() {
					case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
						for _, arg := range n.Args {
							if isErrorCall(info, arg) {
								pass.Reportf(n.Pos(),
									"error matched by strings.%s on Error(): use errors.Is or errors.As", fn.Name())
								break
							}
						}
					}
				}
			case *ast.ExprStmt:
				reportDroppedError(pass, n.X, "discarded")
			case *ast.GoStmt:
				reportDroppedError(pass, n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				reportDroppedError(pass, n.Call, "discarded by defer")
			case *ast.AssignStmt:
				// _ = criticalCall()  /  m, _ := criticalCall()  /
				// _, _ = ..., criticalCall()
				if len(n.Rhs) == 1 {
					if allBlank(n.Lhs) {
						reportDroppedError(pass, n.Rhs[0], "assigned to _")
					} else if len(n.Lhs) > 1 {
						// Multi-result call: flag a blanked error slot.
						if tuple, ok := info.Types[n.Rhs[0]].Type.(*types.Tuple); ok && tuple.Len() == len(n.Lhs) {
							for i := range n.Lhs {
								if isBlank(n.Lhs[i]) && isErrorType(tuple.At(i).Type()) {
									reportDroppedError(pass, n.Rhs[0], "assigned to _")
									break
								}
							}
						}
					}
				} else {
					for i, rhs := range n.Rhs {
						if i < len(n.Lhs) && isBlank(n.Lhs[i]) {
							reportDroppedError(pass, rhs, "assigned to _")
						}
					}
				}
			}
			return true
		})
	}
}

// reportDroppedError flags e when it is a persistence-critical call
// whose error result is being thrown away.
func reportDroppedError(pass *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeOf(pass.Pkg.Info, call)
	if !isPersistenceCritical(fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from persistence-critical %s %s: crash consistency depends on checking it",
		symbolKey(fn), how)
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !isBlank(e) {
			return false
		}
	}
	return true
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return "ErrX"
}
