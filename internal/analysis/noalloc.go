package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc enforces the zero-alloc read-chain contract: a function whose
// doc comment carries //chipkill:noalloc must not contain allocating
// constructs, transitively through every statically resolvable callee.
// Before this analyzer the guarantee hung on two AllocsPerRun benchmark
// pins (internal/rank and internal/engine); those still gate the end
// result, but this catches the exact construct at the exact line, in
// every caller, on every build.
//
// Rules, per annotated function body (and, through allocation facts,
// every callee's body):
//
//   - make / new / append, slice, map and pointer composite literals
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions
//   - interface boxing of non-pointer values (explicit conversions,
//     assignments, returns, and arguments to interface parameters)
//   - closures, bound-method values, and go statements
//   - fmt calls, dynamic (interface or func-value) calls, and calls to
//     any function whose allocation behaviour is unknown or allocating
//
// Allocations that only feed a panic call are ignored: a panicking
// process has no allocation budget to protect. Callees that are
// themselves annotated //chipkill:noalloc are trusted here and checked
// at their own declaration. Intentional cold-path allocations take a
// //chipkill:allow noalloc <reason> on the offending line.
var NoAlloc = &Analyzer{
	Name:          "noalloc",
	Doc:           "reject allocating constructs in //chipkill:noalloc functions, transitively",
	SkipTestFiles: true,
	Run:           runNoAlloc,
}

// funcFact is the cross-package allocation summary of one function.
type funcFact struct {
	known     bool
	allocates bool
	noalloc   bool // annotated //chipkill:noalloc
	reason    string
}

// safeAllocPkgs are stdlib packages whose exported API never allocates.
var safeAllocPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"math":        true,
}

// safeAllocFuncs are individually vetted non-allocating stdlib
// functions, keyed by symbolKey.
var safeAllocFuncs = map[string]bool{
	"sync.Mutex.Lock":            true,
	"sync.Mutex.Unlock":          true,
	"sync.Mutex.TryLock":         true,
	"sync.RWMutex.Lock":          true,
	"sync.RWMutex.Unlock":        true,
	"sync.RWMutex.RLock":         true,
	"sync.RWMutex.RUnlock":       true,
	"math/rand.Rand.Read":        true,
	"math/rand.Rand.Int63":       true,
	"math/rand.Rand.Int63n":      true,
	"math/rand.Rand.Intn":        true,
	"math/rand.Rand.Uint64":      true,
	"math/rand.Rand.Float64":     true,
	"math/rand.Rand.NormFloat64": true,
	"errors.Is":                  true,
	// encoding/binary's byte-order accessors are pure loads/stores; the
	// package's reflective Read/Write are deliberately NOT listed.
	"encoding/binary.littleEndian.Uint16":    true,
	"encoding/binary.littleEndian.Uint32":    true,
	"encoding/binary.littleEndian.Uint64":    true,
	"encoding/binary.littleEndian.PutUint16": true,
	"encoding/binary.littleEndian.PutUint32": true,
	"encoding/binary.littleEndian.PutUint64": true,
	"encoding/binary.bigEndian.Uint16":       true,
	"encoding/binary.bigEndian.Uint32":       true,
	"encoding/binary.bigEndian.Uint64":       true,
	"encoding/binary.bigEndian.PutUint16":    true,
	"encoding/binary.bigEndian.PutUint32":    true,
	"encoding/binary.bigEndian.PutUint64":    true,
}

// allocSite is one allocating construct found in a body.
type allocSite struct {
	pos token.Pos
	msg string
}

// callRef is one statically resolved call out of a body.
type callRef struct {
	pos token.Pos
	fn  *types.Func
}

// allocSummary is the walk result for one function body.
type allocSummary struct {
	sites []allocSite
	calls []callRef
}

// suite-wide storage of per-declaration summaries, filled during fact
// computation and consumed by runNoAlloc.
type declKey struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func (s *Suite) summaries() map[declKey]*allocSummary {
	if s.allocSummaries == nil {
		s.allocSummaries = map[declKey]*allocSummary{}
	}
	return s.allocSummaries
}

// allocLocal pairs one summarised declaration with its fact key, queued
// for the suite-wide fixpoint.
type allocLocal struct {
	key     string
	summary *allocSummary
}

// collectAllocFacts summarises every function body in pkg and seeds its
// facts (annotation, direct allocation sites). Propagation through calls
// happens afterwards in propagateAllocFacts, once every package has been
// summarised — go list's output interleaves test variants with their
// importers, so no single-pass order has callee facts ready.
func collectAllocFacts(s *Suite, pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sum := summarizeAllocs(pkg, fd, fn)
			key := symbolKey(fn)
			s.summaries()[declKey{pkg, fd}] = sum
			fact := funcFact{known: true, noalloc: pkg.dirs.markedDecl("noalloc", fd)}
			if len(sum.sites) > 0 {
				fact.allocates = true
				fact.reason = sum.sites[0].msg
			}
			s.facts[key] = fact
			s.allocLocals = append(s.allocLocals, allocLocal{key, sum})
		}
	}
}

// propagateAllocFacts spreads "allocates" through static calls until
// stable. The fact only ever flips one way, so this terminates.
func (s *Suite) propagateAllocFacts() {
	for changed := true; changed; {
		changed = false
		for _, l := range s.allocLocals {
			f := s.facts[l.key]
			if f.allocates {
				continue
			}
			for _, call := range l.summary.calls {
				if reason, bad := s.callAllocates(call.fn); bad {
					f.allocates = true
					f.reason = reason
					s.facts[l.key] = f
					changed = true
					break
				}
			}
		}
	}
}

// callAllocates reports whether calling fn may allocate, with a reason.
// Annotated //chipkill:noalloc callees are trusted (their violations are
// reported at their own declaration).
func (s *Suite) callAllocates(fn *types.Func) (string, bool) {
	key := symbolKey(fn)
	if fact, ok := s.facts[key]; ok && fact.known {
		if fact.noalloc {
			return "", false
		}
		if fact.allocates {
			return fmt.Sprintf("calls %s, which allocates (%s)", key, fact.reason), true
		}
		return "", false
	}
	if fn.Pkg() != nil && safeAllocPkgs[fn.Pkg().Path()] {
		return "", false
	}
	if safeAllocFuncs[key] {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return fmt.Sprintf("calls %s, which allocates", key), true
	}
	return fmt.Sprintf("calls %s, whose allocation behaviour is unknown", key), true
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !pass.Pkg.dirs.markedDecl("noalloc", fd) {
				continue
			}
			sum := pass.Suite.summaries()[declKey{pass.Pkg, fd}]
			if sum == nil {
				continue
			}
			for _, site := range sum.sites {
				pass.Reportf(site.pos, "%s in //chipkill:noalloc function %s", site.msg, fd.Name.Name)
			}
			for _, call := range sum.calls {
				if reason, bad := pass.Suite.callAllocates(call.fn); bad {
					pass.Reportf(call.pos, "//chipkill:noalloc function %s %s", fd.Name.Name, reason)
				}
			}
		}
	}
}

// summarizeAllocs walks one function body collecting allocating
// constructs and outgoing calls. Nodes inside panic arguments are
// skipped entirely.
func summarizeAllocs(pkg *Package, fd *ast.FuncDecl, fn *types.Func) *allocSummary {
	info := pkg.Info
	sum := &allocSummary{}

	// Pre-pass: spans of panic arguments (skipped), and the set of
	// selector/ident nodes that are the function position of a call
	// (so method *values* can be told apart from method calls).
	var panicSpans [][2]token.Pos
	callFun := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		callFun[fun] = true
		if id, ok := fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" && len(call.Args) == 1 {
				panicSpans = append(panicSpans, [2]token.Pos{call.Args[0].Pos(), call.Args[0].End()})
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, sp := range panicSpans {
			if sp[0] <= pos && pos < sp[1] {
				return true
			}
		}
		return false
	}
	site := func(pos token.Pos, format string, args ...any) {
		if !inPanic(pos) {
			sum.sites = append(sum.sites, allocSite{pos, fmt.Sprintf(format, args...)})
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if inPanic(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			site(n.Pos(), "go statement allocates a goroutine")
		case *ast.FuncLit:
			site(n.Pos(), "closure may allocate (captured variables escape)")
			return false // inner body belongs to the closure, not this function
		case *ast.CompositeLit:
			t := info.Types[n].Type
			switch t.Underlying().(type) {
			case *types.Slice:
				site(n.Pos(), "slice literal allocates")
			case *types.Map:
				site(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					site(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil {
					if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						site(n.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.SelectorExpr:
			if !callFun[n] {
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					site(n.Pos(), "bound-method value allocates")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) == len(n.Rhs) {
					if lt, ok := info.Types[n.Lhs[i]]; ok {
						checkBoxing(info, sum, lt.Type, rhs, inPanic)
					}
				}
			}
		case *ast.ReturnStmt:
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					checkBoxing(info, sum, sig.Results().At(i).Type(), res, inPanic)
				}
			}
		case *ast.CallExpr:
			summarizeCall(pkg, sum, n, site, inPanic)
		}
		return true
	})
	return sum
}

// summarizeCall classifies one call expression: builtin, conversion,
// static call (recorded for fact lookup), or dynamic call (flagged).
func summarizeCall(pkg *Package, sum *allocSummary, call *ast.CallExpr, site func(token.Pos, string, ...any), inPanic func(token.Pos) bool) {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.Types[call.Args[0]].Type
			switch {
			case isString(to) && (isByteSlice(from) || isRuneSlice(from)):
				site(call.Pos(), "string(%s) conversion allocates", from)
			case (isByteSlice(to) || isRuneSlice(to)) && isString(from):
				site(call.Pos(), "%s(string) conversion allocates", to)
			case types.IsInterface(to.Underlying()):
				if from != nil && !isPointerShaped(from) && !types.IsInterface(from.Underlying()) {
					site(call.Pos(), "conversion to interface boxes non-pointer %s", from)
				}
			}
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				site(call.Pos(), "make allocates")
			case "new":
				site(call.Pos(), "new allocates")
			case "append":
				site(call.Pos(), "append may grow its backing array")
			case "print", "println":
				site(call.Pos(), "%s allocates", b.Name())
			}
			return
		}
	}

	// Static callee: record for transitive fact lookup, and check
	// arguments passed into interface parameters for boxing.
	if fn := calleeOf(info, call); fn != nil {
		if !inPanic(call.Pos()) {
			sum.calls = append(sum.calls, callRef{call.Pos(), fn})
		}
		if sig, ok := fn.Type().(*types.Signature); ok {
			checkArgBoxing(info, sum, sig, call, inPanic)
		}
		return
	}
	site(call.Pos(), "dynamic call (interface method or function value) has unknown allocation behaviour")
}

// checkArgBoxing flags non-pointer concrete arguments passed to
// interface parameters.
func checkArgBoxing(info *types.Info, sum *allocSummary, sig *types.Signature, call *ast.CallExpr, inPanic func(token.Pos) bool) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			checkBoxing(info, sum, pt, arg, inPanic)
		}
	}
}

// checkBoxing flags storing a non-pointer concrete value into an
// interface-typed destination.
func checkBoxing(info *types.Info, sum *allocSummary, dst types.Type, src ast.Expr, inPanic func(token.Pos) bool) {
	if dst == nil || !types.IsInterface(dst.Underlying()) || inPanic(src.Pos()) {
		return
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	from := tv.Type
	if types.IsInterface(from.Underlying()) || isPointerShaped(from) {
		return
	}
	sum.sites = append(sum.sites, allocSite{src.Pos(),
		fmt.Sprintf("interface boxing of non-pointer %s", from)})
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Rune
}

// isPointerShaped reports whether values of t fit an interface's data
// word without heap allocation.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
