package analysis

// The lockorder analyzer enforces the fleet's declared lock partial
// order (DESIGN.md §15): every //chipkill:lock carries a level, and any
// acquisition — a mutex Lock on an annotated field, a locks-annotated
// helper, or a call to a scoped-lock function like Engine.Quiesce — must
// target a strictly higher level than every lock already held. The same
// name held twice is a self-deadlock, or, for scoped locks, a nested
// quiesce; the check runs lexically, transitively through static calls
// (using the lock graph's may-acquire fixpoint), and through registered
// hook edges (guard's Repair, the fleet's RepairBandHook). Ranked locks
// (the per-shard mutexes) may be multi-instance-held only by loops that
// iterate in ascending index order. As the annotation-removal backstop,
// every sync.Mutex/RWMutex struct field in the concurrency-contract
// packages must carry a //chipkill:lock annotation.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockOrder enforces the declared lock partial order, the
// no-nested-quiesce rule, and ascending ranked acquisition.
var LockOrder = &Analyzer{
	Name:          "lockorder",
	Doc:           "lock acquisitions must follow the declared //chipkill:lock level order; quiesces never nest",
	SkipTestFiles: true,
	Run:           runLockOrder,
}

// lockContractPkgs are the packages whose mutexes and atomics must be
// annotated (the coverage rules that make annotation removal loud).
var lockContractPkgs = []string{
	"internal/fleet", "internal/engine", "internal/guard",
	"internal/core", "internal/nvram", "internal/rank",
}

func inLockContractPkg(path string) bool {
	for _, suffix := range lockContractPkgs {
		if pathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

func runLockOrder(pass *Pass) {
	g := pass.Suite.locks
	if g == nil {
		return
	}
	if inLockContractPkg(pass.Pkg.PkgPath) {
		reportBareMutexes(pass, g)
	}
	for _, sc := range g.scans[pass.Pkg] {
		checkScanOrder(pass, g, sc)
	}
}

// reportBareMutexes flags mutex struct fields with no //chipkill:lock
// annotation, so deleting a mark fails vet instead of silently shrinking
// the checked order.
func reportBareMutexes(pass *Pass, g *lockGraph) {
	forEachStructField(pass.Pkg, func(owner string, fld *ast.Field) {
		tv, ok := pass.Pkg.Info.Types[fld.Type]
		if !ok || !isSyncMutexType(tv.Type) {
			return
		}
		if len(fld.Names) == 0 {
			pass.Reportf(fld.Pos(), "embedded %s in %s must be a named field with a //chipkill:lock annotation", tv.Type, owner)
			return
		}
		for _, id := range fld.Names {
			if g.fieldLock[fieldKey(pass.Pkg.PkgPath, owner, id.Name)] == "" {
				pass.Reportf(id.Pos(), "mutex field %s.%s has no //chipkill:lock annotation; declare its place in the lock order", owner, id.Name)
			}
		}
	})
}

func isSyncMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func checkScanOrder(pass *Pass, g *lockGraph, sc *lockScan) {
	for _, a := range sc.acquires {
		held := sc.heldAt(a.pos)
		for _, h := range held {
			if v := orderViolation(g, a.lock, h); v != "" {
				pass.Reportf(a.pos, "acquires %s", v)
			}
		}
		if a.loop != nil && a.opened && a.intervalEnd > a.loop.end {
			d := g.decls[a.lock]
			switch {
			case d == nil:
			case !d.ranked:
				pass.Reportf(a.pos, "lock %q is held across loop iterations (multi-instance acquisition) but is not declared ranked", a.lock)
			case a.loop.descending:
				pass.Reportf(a.pos, "ranked lock %q acquired in a descending loop; multi-instance acquisition must be in ascending index order", a.lock)
			}
		}
	}
	for _, c := range sc.calls {
		held := sc.heldAt(c.pos)
		for _, need := range g.holdsFn[c.key] {
			if !containsStr(held, need) {
				pass.Reportf(c.pos, "call to %s requires lock %q held (//chipkill:holds), but it is not held here", c.fn.Name(), need)
			}
		}
		for lk := range g.acq[c.key] {
			if lk == c.skip {
				continue
			}
			for _, h := range held {
				if v := orderViolation(g, lk, h); v != "" {
					pass.Reportf(c.pos, "call to %s may acquire %s", c.fn.Name(), v)
				}
			}
		}
	}
	for _, hc := range sc.hooks {
		targets := g.hookTargets[hc.fieldKey]
		if len(targets) == 0 {
			continue
		}
		held := sc.heldAt(hc.pos)
		reported := map[string]bool{}
		for tk := range targets {
			for lk := range g.acq[tk] {
				if reported[lk] {
					continue
				}
				for _, h := range held {
					if v := orderViolation(g, lk, h); v != "" {
						pass.Reportf(hc.pos, "call through hook %s may acquire %s", hc.name, v)
						reported[lk] = true
						break
					}
				}
			}
		}
	}
}

// orderViolation describes why acquiring lk while holding h breaks the
// declared order ("" when it does not).
func orderViolation(g *lockGraph, lk, h string) string {
	dl, dh := g.decls[lk], g.decls[h]
	if dl == nil || dh == nil {
		return ""
	}
	switch {
	case lk == h && dl.virtual:
		return fmt.Sprintf("nested %q: a scoped (quiesce) section for it is already active", lk)
	case lk == h:
		return fmt.Sprintf("%q while it is already held (self-deadlock)", lk)
	case dl.level <= dh.level:
		return fmt.Sprintf("%q (level %d) while holding %q (level %d); lock levels must strictly increase", lk, dl.level, h, dh.level)
	}
	return ""
}
