package analysis

import (
	"go/ast"
	"go/types"
)

// Seqlock enforces the reader side of the engine's lock-free clean-read
// contract (DESIGN.md §12); the rankwide analyzer polices the writer
// side. A function whose doc comment carries //chipkill:seqread runs
// between sequence checks with no exclusion, so it must not store
// anywhere except its own locals and parameters, and may only call
// sync/atomic and encoding/binary, builtins and conversions, or other
// //chipkill:seqread functions. Anything else — a selector store, a
// locking call, fmt — would make the "reader" a writer (or block it)
// where tearing is legal and retries are invisible.
var Seqlock = &Analyzer{
	Name:          "seqlock",
	Doc:           "//chipkill:seqread functions stay pure",
	SkipTestFiles: true,
	Run:           runSeqlock,
}

// runSeqlock checks //chipkill:seqread purity in every target
// package.
func runSeqlock(pass *Pass) {
	marks := seqreadMarks(pass.Suite)
	for fd, verbs := range pass.Pkg.dirs.funcMarks {
		if !verbs["seqread"] || fd.Body == nil {
			continue
		}
		checkSeqreadBody(pass, fd, marks)
	}
}

// seqreadMarks collects the symbol keys of every //chipkill:seqread
// function across the suite, so cross-package reader chains (engine →
// rs → gf tables) resolve without package-local bookkeeping.
func seqreadMarks(s *Suite) map[string]bool {
	marks := map[string]bool{}
	for _, pkg := range s.pkgs {
		if pkg.dirs == nil {
			continue
		}
		for fd, verbs := range pkg.dirs.funcMarks {
			if !verbs["seqread"] {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				marks[symbolKey(fn)] = true
			}
		}
	}
	return marks
}

func checkSeqreadBody(pass *Pass, fd *ast.FuncDecl, marks map[string]bool) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkSeqreadStore(pass, fd, lhs)
			}
		case *ast.IncDecStmt:
			checkSeqreadStore(pass, fd, n.X)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "seqread function %s starts a goroutine", fd.Name.Name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "seqread function %s defers (hidden control flow on the validated path)", fd.Name.Name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "seqread function %s sends on a channel", fd.Name.Name)
		case *ast.CallExpr:
			checkSeqreadCall(pass, fd, marks, info, n)
		}
		return true
	})
}

// checkSeqreadStore flags stores whose target is not rooted at a local
// variable or parameter of the function, or that reach their root
// through a field or pointer dereference (which would mutate shared
// state even when the root is a local pointer).
func checkSeqreadStore(pass *Pass, fd *ast.FuncDecl, lhs ast.Expr) {
	expr := lhs
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			if e.Name == "_" {
				return
			}
			if v, ok := pass.Pkg.Info.ObjectOf(e).(*types.Var); ok &&
				fd.Pos() <= v.Pos() && v.Pos() <= fd.End() {
				return // local, parameter, or receiver of this function
			}
			pass.Reportf(lhs.Pos(),
				"seqread function %s stores outside its locals and parameters", fd.Name.Name)
			return
		default:
			// SelectorExpr, StarExpr, slice of a field, ...
			pass.Reportf(lhs.Pos(),
				"seqread function %s stores through a field or dereference", fd.Name.Name)
			return
		}
	}
}

// checkSeqreadCall enforces the callee whitelist: sync/atomic and
// encoding/binary (pure or validated-by-design), builtins and type
// conversions, and other //chipkill:seqread functions.
func checkSeqreadCall(pass *Pass, fd *ast.FuncDecl, marks map[string]bool, info *types.Info, call *ast.CallExpr) {
	fn := calleeOf(info, call)
	if fn == nil {
		// Conversion, builtin, or a dynamic call we cannot resolve.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return // conversion
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				return
			}
		}
		pass.Reportf(call.Pos(),
			"seqread function %s makes a dynamic call (cannot verify purity)", fd.Name.Name)
		return
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "sync/atomic", "encoding/binary":
			return
		}
	}
	if marks[symbolKey(fn)] {
		return
	}
	pass.Reportf(call.Pos(),
		"seqread function %s calls %s, which is not marked //chipkill:seqread",
		fd.Name.Name, symbolKey(fn))
}
