package analysis

// The lock graph is the shared machinery behind the lockorder,
// guardedby and rankwide analyzers: it resolves every //chipkill:lock
// declaration, scans every function body (and escaping function literal
// or go statement) for lock acquisition/release events, builds the
// lexical held-lock intervals, computes a transitive may-acquire summary
// per function with the same union-until-stable fixpoint noalloc uses,
// and records where function values are installed into func-typed
// struct fields (the guard Repair / fleet RepairBandHook pattern) so
// lock effects flow through those dynamic edges too.
//
// The model is deliberately lexical and instance-blind: a lock name
// stands for every instance of its field, and a lock counts as held from
// its acquisition to the release immediately preceding the next
// acquisition of the same name (or the last release, or the end of the
// body when the release is deferred). Branch-dependent early unlocks
// therefore over-approximate the held set — safe for order checking,
// since code after an `if { unlock; return }` arm only runs while the
// lock is still held. Calls through plain func values (for example the
// callback quiesce hands to each shard) are not tracked; the scoped-lock
// extent covers literal arguments lexically instead.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// A lockDecl is one //chipkill:lock declaration.
type lockDecl struct {
	name   string
	level  int
	ranked bool
	// virtual marks a scoped lock declared on a function (the quiesce
	// pattern): each call holds it for the call's lexical extent.
	virtual bool
	pos     token.Pos
}

// A loopFrame is one for/range statement, for multi-instance checks.
type loopFrame struct {
	pos, end token.Pos
	// descending marks `for i := hi; ...; i--` loops.
	descending bool
}

// A lockInterval is one lexical extent over which a lock is held.
type lockInterval struct {
	lock       string
	start, end token.Pos
}

// An acquireSite is one acquisition event in a body.
type acquireSite struct {
	lock   string
	pos    token.Pos
	end    token.Pos // scoped acquisitions only: end of the call
	scoped bool
	loop   *loopFrame // innermost enclosing loop, if any
	// opened/intervalEnd are filled by buildIntervals when this site
	// opened a fresh interval.
	opened      bool
	intervalEnd token.Pos
}

type lockRelease struct {
	lock string
	pos  token.Pos
}

// A callSite is one statically-resolved call, for transitive checks.
type callSite struct {
	pos token.Pos
	key string // callee symbol key
	fn  *types.Func
	// skip names the lock already modelled as a direct event at this
	// site (scoped and locks-annotated callees), so the transitive
	// check does not report it twice.
	skip string
}

// A hookSite is a dynamic call through a func-typed struct field.
type hookSite struct {
	pos      token.Pos
	fieldKey string
	name     string // display: Type.Field
}

// A guardedSite is one access to a //chipkill:guardedby field.
type guardedSite struct {
	pos   token.Pos
	locks []string
	name  string // display: Type.Field
}

// An atomicSite is one non-atomic use of a //chipkill:atomic field.
type atomicSite struct {
	pos token.Pos
	msg string
}

// A lockScan is the lock-relevant summary of one body: a function
// declaration, an escaping function literal, or a go statement's call.
type lockScan struct {
	pkg   *Package
	entry []string // locks held at entry (//chipkill:holds + own scoped lock)

	acquires  []*acquireSite
	releases  []lockRelease
	calls     []callSite
	hooks     []hookSite
	guarded   []guardedSite
	atomics   []atomicSite
	intervals []lockInterval
}

// A registrar is a function that stores one of its parameters into a
// func-typed field (SetRepairBandHook): literal arguments at its call
// sites become targets of that field.
type registrar struct {
	fieldKey string
	param    int
}

type pendingArg struct {
	callee string
	idx    int
	target string
}

// lockGraph is the whole-suite lock model.
type lockGraph struct {
	suite *Suite

	decls         map[string]*lockDecl
	fieldLock     map[string]string   // field key -> lock name
	guardedFields map[string][]string // field key -> accepted lock names
	atomicFields  map[string]bool

	scopedFn  map[string]string   // symbol key -> scoped lock it declares
	locksFn   map[string]string   // symbol key -> lock it acquires unbalanced
	unlocksFn map[string]string   // symbol key -> lock it releases
	holdsFn   map[string][]string // symbol key -> locks required at entry

	acq   map[string]map[string]bool // symbol key -> may-acquire lock names
	edges map[string][]string        // symbol key -> static callee keys

	hookTargets map[string]map[string]bool // func-field key -> target keys
	registrars  map[string]registrar
	pending     []pendingArg

	scans map[*Package][]*lockScan
}

func collectLockGraph(s *Suite) *lockGraph {
	g := &lockGraph{
		suite:         s,
		decls:         map[string]*lockDecl{},
		fieldLock:     map[string]string{},
		guardedFields: map[string][]string{},
		atomicFields:  map[string]bool{},
		scopedFn:      map[string]string{},
		locksFn:       map[string]string{},
		unlocksFn:     map[string]string{},
		holdsFn:       map[string][]string{},
		acq:           map[string]map[string]bool{},
		edges:         map[string][]string{},
		hookTargets:   map[string]map[string]bool{},
		registrars:    map[string]registrar{},
		scans:         map[*Package][]*lockScan{},
	}
	// Declarations and function annotations first, across every package,
	// so body scans can classify cross-package callees.
	for _, pkg := range s.pkgs {
		g.collectDecls(pkg)
	}
	for _, pkg := range s.pkgs {
		g.scanPackage(pkg)
	}
	// Literal arguments to registrar calls resolve once every registrar
	// is known.
	for _, pa := range g.pending {
		if reg, ok := g.registrars[pa.callee]; ok && reg.param == pa.idx {
			g.addHookTarget(reg.fieldKey, pa.target)
		}
	}
	return g
}

func fieldKey(pkgPath, owner, field string) string {
	return pkgPath + "." + owner + "." + field
}

func (g *lockGraph) collectDecls(pkg *Package) {
	for _, dir := range pkg.dirs.all {
		key := ""
		if dir.inDoc != nil {
			key = declSymbolKey(pkg, dir.inDoc)
		}
		switch dir.verb {
		case "lock":
			name, level, ranked, perr := parseLockArgs(dir.args)
			if perr != "" {
				continue // validateDirectives reports
			}
			if g.decls[name] == nil {
				g.decls[name] = &lockDecl{
					name: name, level: level, ranked: ranked,
					virtual: dir.inDoc != nil, pos: dir.pos,
				}
			}
			switch {
			case dir.inField != nil:
				for _, id := range dir.inField.Names {
					g.fieldLock[fieldKey(pkg.PkgPath, dir.fieldOwner, id.Name)] = name
				}
			case dir.inDoc != nil && key != "":
				g.scopedFn[key] = name
			}
		case "locks":
			if key != "" {
				g.locksFn[key] = strings.TrimSpace(dir.args)
			}
		case "unlocks":
			if key != "" {
				g.unlocksFn[key] = strings.TrimSpace(dir.args)
			}
		case "holds":
			if key != "" {
				g.holdsFn[key] = append(g.holdsFn[key], strings.TrimSpace(dir.args))
			}
		case "guardedby":
			if dir.inField == nil {
				continue
			}
			names := strings.Fields(dir.args)
			if len(names) == 0 {
				continue
			}
			for _, id := range dir.inField.Names {
				g.guardedFields[fieldKey(pkg.PkgPath, dir.fieldOwner, id.Name)] = names
			}
		case "atomic":
			if dir.inField == nil {
				continue
			}
			for _, id := range dir.inField.Names {
				g.atomicFields[fieldKey(pkg.PkgPath, dir.fieldOwner, id.Name)] = true
			}
		}
	}
}

func declSymbolKey(pkg *Package, fd *ast.FuncDecl) string {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return ""
	}
	return symbolKey(fn)
}

func (g *lockGraph) addHookTarget(fieldKey, target string) {
	set := g.hookTargets[fieldKey]
	if set == nil {
		set = map[string]bool{}
		g.hookTargets[fieldKey] = set
	}
	set[target] = true
}

func (g *lockGraph) scanPackage(pkg *Package) {
	for _, f := range pkg.Files {
		fname := g.suite.fset.Position(f.Pos()).Filename
		isTest := strings.HasSuffix(fname, "_test.go")
		parents := map[ast.Node]ast.Node{}
		buildParents(f, parents)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := declSymbolKey(pkg, fd)
			var entry []string
			entry = append(entry, g.holdsFn[key]...)
			if n := g.scopedFn[key]; n != "" {
				entry = append(entry, n)
			}
			g.scanBody(pkg, key, fd.Body, entry, parents, isTest)
		}
	}
}

// scanBody walks one body, collecting lock events, calls, hook calls,
// and guarded/atomic field accesses. Escaping function literals and the
// calls of go statements run on other goroutines, so each is scanned as
// a body of its own with an empty entry set; literals lexically inside a
// scoped-lock extent stay part of this scan.
func (g *lockGraph) scanBody(pkg *Package, key string, body ast.Node, entry []string, parents map[ast.Node]ast.Node, isTest bool) {
	sc := &lockScan{pkg: pkg, entry: entry}
	var escaping []*ast.FuncLit
	var spawned []*ast.CallExpr
	var loops []*loopFrame
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if g.isInlineLit(pkg, n, parents) {
				return true
			}
			escaping = append(escaping, n)
			return false
		case *ast.GoStmt:
			spawned = append(spawned, n.Call)
			return false
		case *ast.ForStmt:
			desc := false
			if post, ok := n.Post.(*ast.IncDecStmt); ok && post.Tok == token.DEC {
				desc = true
			}
			loops = append(loops, &loopFrame{pos: n.Pos(), end: n.End(), descending: desc})
		case *ast.RangeStmt:
			loops = append(loops, &loopFrame{pos: n.Pos(), end: n.End()})
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			g.scanCall(sc, pkg, n, deferred[n], loops, isTest)
		case *ast.AssignStmt:
			g.scanAssign(pkg, n, isTest)
		case *ast.SelectorExpr:
			g.scanSelector(sc, pkg, n, parents)
		}
		return true
	})
	sc.buildIntervals(body.End())
	g.scans[pkg] = append(g.scans[pkg], sc)
	if key != "" {
		set := g.acq[key]
		if set == nil {
			set = map[string]bool{}
			g.acq[key] = set
		}
		for _, a := range sc.acquires {
			set[a.lock] = true
		}
		for _, c := range sc.calls {
			g.edges[key] = append(g.edges[key], c.key)
		}
	}
	for _, lit := range escaping {
		g.scanBody(pkg, g.litKey(pkg, lit), lit.Body, nil, parents, isTest)
	}
	for _, call := range spawned {
		g.scanBody(pkg, "", call, nil, parents, isTest)
	}
}

// isInlineLit reports whether a function literal's body belongs to the
// enclosing scan: immediately-invoked literals (not under go/defer) and
// literal arguments to scoped-lock calls, whose extent covers them.
func (g *lockGraph) isInlineLit(pkg *Package, lit *ast.FuncLit, parents map[ast.Node]ast.Node) bool {
	call, ok := parents[lit].(*ast.CallExpr)
	if !ok {
		return false
	}
	if call.Fun == lit {
		switch parents[call].(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		return true
	}
	if fn := calleeOf(pkg.Info, call); fn != nil && g.scopedFn[symbolKey(fn)] != "" {
		return true
	}
	return false
}

func (g *lockGraph) litKey(pkg *Package, lit *ast.FuncLit) string {
	p := g.suite.fset.Position(lit.Pos())
	return fmt.Sprintf("%s.funclit@%s:%d:%d", pkg.PkgPath, filepath.Base(p.Filename), p.Line, p.Column)
}

func (g *lockGraph) scanCall(sc *lockScan, pkg *Package, call *ast.CallExpr, isDeferred bool, loops []*loopFrame, isTest bool) {
	fn := calleeOf(pkg.Info, call)
	if fn == nil {
		// Dynamic call through a func-typed struct field: a hook edge.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fkey, fname := fieldKeyOf(pkg, sel); fkey != "" {
				sc.hooks = append(sc.hooks, hookSite{pos: call.Pos(), fieldKey: fkey, name: fname})
			}
		}
		return
	}
	key := symbolKey(fn)
	if isMutexMethod(fn, "Lock", "RLock") {
		if lk := g.recvFieldLock(pkg, call); lk != "" {
			if !isDeferred {
				sc.addAcquire(lk, call.Pos(), token.NoPos, false, innermostLoop(loops, call.Pos()))
			}
			return
		}
	}
	if isMutexMethod(fn, "Unlock", "RUnlock") {
		if lk := g.recvFieldLock(pkg, call); lk != "" {
			if !isDeferred {
				sc.releases = append(sc.releases, lockRelease{lock: lk, pos: call.Pos()})
			}
			return
		}
	}
	switch {
	case g.scopedFn[key] != "":
		lk := g.scopedFn[key]
		if !isDeferred {
			sc.addAcquire(lk, call.Pos(), call.End(), true, innermostLoop(loops, call.Pos()))
		}
		sc.calls = append(sc.calls, callSite{pos: call.Pos(), key: key, fn: fn, skip: lk})
	case g.locksFn[key] != "":
		if !isDeferred {
			sc.addAcquire(g.locksFn[key], call.Pos(), token.NoPos, false, innermostLoop(loops, call.Pos()))
		}
		sc.calls = append(sc.calls, callSite{pos: call.Pos(), key: key, fn: fn, skip: g.locksFn[key]})
	case g.unlocksFn[key] != "":
		if !isDeferred {
			sc.releases = append(sc.releases, lockRelease{lock: g.unlocksFn[key], pos: call.Pos()})
		}
	default:
		sc.calls = append(sc.calls, callSite{pos: call.Pos(), key: key, fn: fn})
	}
	if !isTest {
		// Function values passed as arguments are remembered in case the
		// callee is a registrar (stores the parameter into a hook field).
		for i, a := range call.Args {
			switch arg := ast.Unparen(a).(type) {
			case *ast.FuncLit:
				g.pending = append(g.pending, pendingArg{callee: key, idx: i, target: g.litKey(pkg, arg)})
			case *ast.Ident:
				if afn, ok := pkg.Info.Uses[arg].(*types.Func); ok {
					g.pending = append(g.pending, pendingArg{callee: key, idx: i, target: symbolKey(afn)})
				}
			case *ast.SelectorExpr:
				if afn, ok := pkg.Info.Uses[arg.Sel].(*types.Func); ok {
					g.pending = append(g.pending, pendingArg{callee: key, idx: i, target: symbolKey(afn)})
				}
			}
		}
	}
}

// scanAssign records function values stored into func-typed struct
// fields: the hook-registration edges. Test files register throwaway
// hooks; the production contract only covers non-test assignments.
func (g *lockGraph) scanAssign(pkg *Package, as *ast.AssignStmt, isTest bool) {
	if isTest || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		fkey, _ := fieldKeyOf(pkg, sel)
		if fkey == "" {
			continue
		}
		tv, ok := pkg.Info.Types[sel]
		if !ok {
			continue
		}
		if _, ok := tv.Type.Underlying().(*types.Signature); !ok {
			continue
		}
		switch r := ast.Unparen(as.Rhs[i]).(type) {
		case *ast.FuncLit:
			g.addHookTarget(fkey, g.litKey(pkg, r))
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[r].(*types.Func); ok {
				g.addHookTarget(fkey, symbolKey(fn))
				continue
			}
			// One-hop parameter flow: a function that stores a func
			// parameter into a field is a registrar; arguments at its
			// call sites become the field's targets.
			if v, ok := pkg.Info.Uses[r].(*types.Var); ok {
				if fd := pkg.dirs.enclosingFunc(as.Pos()); fd != nil {
					if idx := paramIndex(pkg, fd, v); idx >= 0 {
						g.registrars[declSymbolKey(pkg, fd)] = registrar{fieldKey: fkey, param: idx}
					}
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[r.Sel].(*types.Func); ok {
				g.addHookTarget(fkey, symbolKey(fn))
			}
		}
	}
}

func (g *lockGraph) scanSelector(sc *lockScan, pkg *Package, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node) {
	fkey, fname := fieldKeyOf(pkg, sel)
	if fkey == "" {
		return
	}
	if locks := g.guardedFields[fkey]; len(locks) > 0 {
		sc.guarded = append(sc.guarded, guardedSite{pos: sel.Pos(), locks: locks, name: fname})
	}
	if g.atomicFields[fkey] {
		if ok, msg := atomicUseOK(pkg, parents, sel, fname); !ok {
			sc.atomics = append(sc.atomics, atomicSite{pos: sel.Pos(), msg: msg})
		}
	}
}

func (sc *lockScan) addAcquire(lock string, pos, end token.Pos, scoped bool, loop *loopFrame) {
	sc.acquires = append(sc.acquires, &acquireSite{
		lock: lock, pos: pos, end: end, scoped: scoped, loop: loop,
	})
}

// buildIntervals turns the raw acquire/release events into held
// intervals. Per lock, an acquisition extends through consecutive
// releases and closes at the release immediately preceding the next
// acquisition of the same lock, at the last release, or — when every
// release is deferred or branch-local — at the end of the body.
func (sc *lockScan) buildIntervals(bodyEnd token.Pos) {
	type ev struct {
		pos     token.Pos
		acquire bool
		site    *acquireSite
	}
	byLock := map[string][]ev{}
	for _, a := range sc.acquires {
		if a.scoped {
			sc.intervals = append(sc.intervals, lockInterval{lock: a.lock, start: a.pos, end: a.end})
			a.opened, a.intervalEnd = true, a.end
			continue
		}
		byLock[a.lock] = append(byLock[a.lock], ev{pos: a.pos, acquire: true, site: a})
	}
	for _, r := range sc.releases {
		byLock[r.lock] = append(byLock[r.lock], ev{pos: r.pos})
	}
	for lock, evs := range byLock {
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		for i := 0; i < len(evs); i++ {
			if !evs[i].acquire {
				continue
			}
			end := bodyEnd
			last := token.NoPos
			j := i + 1
			for ; j < len(evs); j++ {
				if evs[j].acquire {
					break
				}
				last = evs[j].pos
			}
			if last != token.NoPos {
				end = last
			}
			sc.intervals = append(sc.intervals, lockInterval{lock: lock, start: evs[i].pos, end: end})
			evs[i].site.opened, evs[i].site.intervalEnd = true, end
		}
	}
}

// heldAt returns the locks held at pos: the entry set plus every
// interval strictly containing pos (an acquisition excludes itself).
func (sc *lockScan) heldAt(pos token.Pos) []string {
	held := append([]string{}, sc.entry...)
	for _, iv := range sc.intervals {
		if iv.start < pos && pos < iv.end && !containsStr(held, iv.lock) {
			held = append(held, iv.lock)
		}
	}
	return held
}

// propagate closes the may-acquire sets over static call edges.
func (g *lockGraph) propagate() {
	for changed := true; changed; {
		changed = false
		for k, callees := range g.edges {
			set := g.acq[k]
			for _, ck := range callees {
				for lk := range g.acq[ck] {
					if set == nil {
						set = map[string]bool{}
						g.acq[k] = set
					}
					if !set[lk] {
						set[lk] = true
						changed = true
					}
				}
			}
		}
	}
}

// ---- helpers ----

// fieldKeyOf resolves a selector to its struct-field key and display
// name, or "" when the selector is not a direct field access.
func fieldKeyOf(pkg *Package, sel *ast.SelectorExpr) (string, string) {
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", ""
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", ""
	}
	owner := recvTypeName(selection.Recv())
	if owner == "" {
		return "", ""
	}
	return fieldKey(v.Pkg().Path(), owner, v.Name()), owner + "." + v.Name()
}

// recvFieldLock resolves a mutex method call's receiver to an annotated
// lock name ("" when the receiver is not an annotated field).
func (g *lockGraph) recvFieldLock(pkg *Package, call *ast.CallExpr) string {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	key, _ := fieldKeyOf(pkg, recv)
	if key == "" {
		return ""
	}
	return g.fieldLock[key]
}

func isMutexMethod(fn *types.Func, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	tn := recvTypeName(sig.Recv().Type())
	if tn != "Mutex" && tn != "RWMutex" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// atomicUseOK classifies one use of a //chipkill:atomic field: atomic.*
// typed fields may only appear as the receiver of a method call; plain
// typed fields only inside an &field... argument to a sync/atomic call.
func atomicUseOK(pkg *Package, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr, fname string) (bool, string) {
	tv, ok := pkg.Info.Types[sel]
	if !ok {
		return true, ""
	}
	if isAtomicValueType(tv.Type) {
		if p, ok := parents[sel].(*ast.SelectorExpr); ok && p.X == sel {
			if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
				return true, ""
			}
		}
		return false, fmt.Sprintf("atomic field %s (//chipkill:atomic) may only be used through its sync/atomic methods", fname)
	}
	node := ast.Node(sel)
walk:
	for {
		switch p := parents[node].(type) {
		case *ast.SelectorExpr:
			if p.X != node {
				break walk
			}
			node = p
		case *ast.IndexExpr:
			if p.X != node {
				break walk
			}
			node = p
		case *ast.ParenExpr:
			node = p
		case *ast.UnaryExpr:
			if p.Op != token.AND {
				break walk
			}
			if call, ok := parents[p].(*ast.CallExpr); ok {
				if fn := calleeOf(pkg.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					return true, ""
				}
			}
			break walk
		default:
			break walk
		}
	}
	return false, fmt.Sprintf("field %s (//chipkill:atomic) may only be accessed through sync/atomic", fname)
}

func isAtomicValueType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func buildParents(root ast.Node, parents map[ast.Node]ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

func paramIndex(pkg *Package, fd *ast.FuncDecl, v *types.Var) int {
	if fd.Type.Params == nil {
		return -1
	}
	idx := 0
	for _, fld := range fd.Type.Params.List {
		if len(fld.Names) == 0 {
			idx++
			continue
		}
		for _, nm := range fld.Names {
			if pkg.Info.Defs[nm] == v {
				return idx
			}
			idx++
		}
	}
	return -1
}

func innermostLoop(loops []*loopFrame, pos token.Pos) *loopFrame {
	var best *loopFrame
	for _, l := range loops {
		if l.pos <= pos && pos < l.end {
			if best == nil || l.pos > best.pos {
				best = l
			}
		}
	}
	return best
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// forEachStructField visits every named struct field in the package's
// files, for the coverage rules.
func forEachStructField(pkg *Package, visit func(owner string, fld *ast.Field)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					visit(ts.Name.Name, fld)
				}
			}
		}
	}
}
