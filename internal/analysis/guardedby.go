package analysis

// The guardedby analyzer enforces field-level access contracts
// (DESIGN.md §15): a //chipkill:guardedby field may only be read or
// written while one of its named locks is held — lexically, inside a
// scoped-lock extent, or in a //chipkill:holds-annotated helper — and a
// //chipkill:atomic field only through sync/atomic. The engine
// seqlock's odd-window rules stay with the rankwide and seqlock
// analyzers; guardedby covers the mutex- and atomic-published state
// around it. As the annotation-removal backstop, every atomic.*-typed
// struct field in the contract packages must carry a //chipkill:atomic
// (or guardedby) mark.

import (
	"go/ast"
	"strings"
)

// GuardedBy enforces //chipkill:guardedby and //chipkill:atomic field
// contracts using the lock graph's held-lock intervals.
var GuardedBy = &Analyzer{
	Name:          "guardedby",
	Doc:           "guarded fields only under their mutex; atomic fields only through sync/atomic",
	SkipTestFiles: true,
	Run:           runGuardedBy,
}

func runGuardedBy(pass *Pass) {
	g := pass.Suite.locks
	if g == nil {
		return
	}
	if inLockContractPkg(pass.Pkg.PkgPath) {
		reportBareAtomics(pass, g)
	}
	for _, sc := range g.scans[pass.Pkg] {
		for _, u := range sc.guarded {
			held := sc.heldAt(u.pos)
			ok := false
			for _, lk := range u.locks {
				if containsStr(held, lk) {
					ok = true
					break
				}
			}
			if !ok {
				pass.Reportf(u.pos, "field %s accessed without holding %s (//chipkill:guardedby)",
					u.name, quoteOr(u.locks))
			}
		}
		for _, a := range sc.atomics {
			pass.Reportf(a.pos, "%s", a.msg)
		}
	}
}

// reportBareAtomics flags atomic.*-typed struct fields carrying neither
// //chipkill:atomic nor //chipkill:guardedby, so deleting a mark fails
// vet instead of silently dropping the contract.
func reportBareAtomics(pass *Pass, g *lockGraph) {
	forEachStructField(pass.Pkg, func(owner string, fld *ast.Field) {
		tv, ok := pass.Pkg.Info.Types[fld.Type]
		if !ok || !isAtomicValueType(tv.Type) {
			return
		}
		for _, id := range fld.Names {
			key := fieldKey(pass.Pkg.PkgPath, owner, id.Name)
			if !g.atomicFields[key] && len(g.guardedFields[key]) == 0 {
				pass.Reportf(id.Pos(), "atomic field %s.%s has no //chipkill:atomic annotation", owner, id.Name)
			}
		}
	})
}

func quoteOr(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = "\"" + n + "\""
	}
	return strings.Join(quoted, " or ")
}
