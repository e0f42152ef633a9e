// Package analysis is chipkillvet's self-contained static-analysis
// framework: a small go/ast + go/types analogue of golang.org/x/tools'
// go/analysis, built on nothing but the standard library so the checker
// needs no module downloads. It exists to turn the codebase's prose-only
// contracts — the per-bank concurrency contract on nvram.Chip/rank.Rank,
// the all-shard-lock discipline for rank-wide maintenance, the zero-alloc
// read chain, and the typed error sentinels — into machine-checked rules
// (DESIGN.md §11).
//
// Annotation grammar (comment directives, attached to a function's doc
// comment unless noted):
//
//	//chipkill:noalloc
//	    The function participates in the zero-alloc read chain: the
//	    noalloc analyzer transitively rejects allocating constructs in
//	    its body.
//	//chipkill:rankwide
//	    The function executes in a rank-wide context (full quiescence, the
//	    single supervision goroutine, or the migration cursor's
//	    single-writer protocol): it may invoke the rank-wide maintenance
//	    operations and quiescence-class chip mutations that the rankwide
//	    analyzer polices, without holding engine.rank.
//	//chipkill:seqread
//	    The function runs on the engine's lock-free clean-read path,
//	    between seqlock validation checks: the seqlock analyzer rejects
//	    stores outside its locals/parameters and calls to anything but
//	    sync/atomic, encoding/binary, builtins/conversions, and other
//	    seqread functions.
//	//chipkill:lock <name> level=<n> [ranked]
//	    Declares a lock in the fleet-wide partial order. On a mutex
//	    struct field it names that mutex; on a function declaration it
//	    declares a scoped (virtual) lock held for the duration of every
//	    call (the quiesce pattern). Levels must strictly increase along
//	    any acquisition chain; "ranked" permits holding several
//	    instances of the lock at once provided they are taken in
//	    ascending index order. Enforced by the lockorder analyzer.
//	//chipkill:locks <name> / //chipkill:unlocks <name>
//	    The function performs an unbalanced acquire/release of the named
//	    lock (the seqlock lockWrite/unlockWrite pair): callers hold the
//	    lock from the locks-call until the unlocks-call.
//	//chipkill:holds <name>
//	    The function requires the named lock to be held on entry; the
//	    lockorder analyzer verifies every call site and assumes the lock
//	    held inside the body.
//	//chipkill:guardedby <name> [<name>...]
//	    On a struct field: the field may only be accessed while one of
//	    the named locks is held (lexically, through annotated helpers,
//	    or inside a scoped-lock extent). Enforced by guardedby.
//	//chipkill:atomic
//	    On a struct field: the field may only be accessed through
//	    sync/atomic (method calls on atomic.* types, or the field's
//	    address passed to a sync/atomic function). Enforced by guardedby.
//	//chipkill:allow <analyzer> <reason>
//	    False-positive escape hatch. On a function's doc comment it
//	    silences <analyzer> for the whole function; on or immediately
//	    above a statement it silences that line. The reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// An Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// SkipTestFiles drops diagnostics positioned in _test.go files.
	// The concurrency and allocation contracts are production-path
	// concerns; tests quiesce and allocate deliberately.
	SkipTestFiles bool
	Run           func(*Pass)
}

// A Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Package is one loaded, type-checked compilation unit.
type Package struct {
	PkgPath string // canonical import path (test-variant suffix stripped)
	Name    string
	Dir     string
	// IsTarget marks packages matched by the load patterns; dependencies
	// pulled in only for fact computation have IsTarget == false and
	// produce no diagnostics.
	IsTarget bool
	// IsTestVariant marks the "pkg [pkg.test]" compilation that folds
	// in-package _test.go files into the build.
	IsTestVariant bool
	Files         []*ast.File
	Types         *types.Package
	Info          *types.Info

	dirs *directives
}

// A Pass is one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Suite    *Suite
}

// Fset returns the suite-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Suite.fset }

// Reportf records a diagnostic at pos unless an allow directive or the
// analyzer's test-file policy suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Suite.report(p.Analyzer, p.Pkg, pos, fmt.Sprintf(format, args...))
}

// Suite loads packages and drives every analyzer over them.
type Suite struct {
	Analyzers []*Analyzer

	fset           *token.FileSet
	pkgs           []*Package
	facts          map[string]funcFact // alloc facts keyed by symbol key
	allocSummaries map[declKey]*allocSummary
	allocLocals    []allocLocal
	locks          *lockGraph // lock declarations + per-body scans
	diags          []Diagnostic
}

// TargetPaths returns the canonical import paths of the packages matched
// by the load patterns (one entry per path, sorted), so callers can
// assert coverage of a suite run.
func (s *Suite) TargetPaths() []string {
	seen := map[string]bool{}
	for _, pkg := range s.pkgs {
		if pkg.IsTarget {
			seen[pkg.PkgPath] = true
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// NewSuite builds a suite over the given analyzers.
func NewSuite(analyzers ...*Analyzer) *Suite {
	return &Suite{
		Analyzers: analyzers,
		fset:      token.NewFileSet(),
		facts:     map[string]funcFact{},
	}
}

// DefaultAnalyzers returns chipkillvet's six contract analyzers.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{NoAlloc, RankWide, Sentinel, Seqlock, LockOrder, GuardedBy}
}

// AnalyzerNames returns the known analyzer names (for directive
// validation), including every suite analyzer.
func (s *Suite) analyzerNames() map[string]bool {
	m := map[string]bool{}
	for _, a := range s.Analyzers {
		m[a.Name] = true
	}
	// The allow grammar accepts any default analyzer even when a suite
	// runs a subset (testdata modules exercise one analyzer at a time
	// but still carry allow directives for the others).
	for _, a := range DefaultAnalyzers() {
		m[a.Name] = true
	}
	return m
}

// Run loads patterns rooted at dir, computes allocation facts in
// dependency order, runs every analyzer on each target package, and
// returns the surviving diagnostics sorted by position.
func (s *Suite) Run(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load(s.fset, dir, patterns)
	if err != nil {
		return nil, err
	}
	s.pkgs = pkgs
	for _, pkg := range pkgs {
		pkg.dirs = parseDirectives(s, pkg)
	}
	// Facts first — summarise every package, then propagate allocation
	// and lock-acquisition facts through the whole call graph, so
	// analyzers see final facts.
	for _, pkg := range pkgs {
		collectAllocFacts(s, pkg)
	}
	s.propagateAllocFacts()
	s.locks = collectLockGraph(s)
	s.locks.propagate()
	for _, pkg := range pkgs {
		if !pkg.IsTarget {
			continue
		}
		s.validateDirectives(pkg)
		for _, a := range s.Analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Suite: s})
		}
	}
	sort.Slice(s.diags, func(i, j int) bool {
		a, b := s.diags[i], s.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return s.diags, nil
}

func (s *Suite) report(a *Analyzer, pkg *Package, pos token.Pos, msg string) {
	position := s.fset.Position(pos)
	if a.SkipTestFiles && strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if pkg.dirs.allowed(a.Name, pos, position.Line, position.Filename) {
		return
	}
	s.diags = append(s.diags, Diagnostic{Pos: position, Analyzer: a.Name, Message: msg})
}

// reportAlways bypasses allow filtering; used by directive validation so
// a malformed directive cannot silence itself.
func (s *Suite) reportAlways(name string, pos token.Pos, msg string) {
	s.diags = append(s.diags, Diagnostic{Pos: s.fset.Position(pos), Analyzer: name, Message: msg})
}

// ---- directives ----

const directivePrefix = "//chipkill:"

// A directive is one parsed //chipkill: comment.
type directive struct {
	pos   token.Pos
	line  int    // line the comment sits on
	file  string // filename
	verb  string // "noalloc", "rankwide", "seqread", "lock", ... "allow"
	args  string // text after the verb
	inDoc *ast.FuncDecl
	// inField is set when the comment is a struct field's doc or line
	// comment; fieldOwner is the declaring struct type's name.
	inField    *ast.Field
	fieldOwner string
}

// directives indexes a package's //chipkill: comments.
type directives struct {
	all []directive
	// funcMarks maps a top-level FuncDecl to its doc-comment verbs.
	funcMarks map[*ast.FuncDecl]map[string]bool
	// funcAllows maps a FuncDecl to analyzers allowed for its whole body.
	funcAllows map[*ast.FuncDecl]map[string]bool
	// lineAllows maps filename -> line -> analyzers allowed on that line.
	lineAllows map[string]map[int]map[string]bool
	// funcs, sorted by Pos, for enclosing-function lookup.
	decls []*ast.FuncDecl
}

func parseDirectives(s *Suite, pkg *Package) *directives {
	d := &directives{
		funcMarks:  map[*ast.FuncDecl]map[string]bool{},
		funcAllows: map[*ast.FuncDecl]map[string]bool{},
		lineAllows: map[string]map[int]map[string]bool{},
	}
	type fieldSite struct {
		field *ast.Field
		owner string
	}
	for _, f := range pkg.Files {
		docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
		fieldOf := map[*ast.CommentGroup]fieldSite{}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.decls = append(d.decls, decl)
				if decl.Doc != nil {
					docOf[decl.Doc] = decl
				}
			case *ast.GenDecl:
				if decl.Tok != token.TYPE {
					continue
				}
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						site := fieldSite{field: fld, owner: ts.Name.Name}
						if fld.Doc != nil {
							fieldOf[fld.Doc] = site
						}
						if fld.Comment != nil {
							fieldOf[fld.Comment] = site
						}
					}
				}
			}
		}
		for _, cg := range f.Comments {
			owner := docOf[cg]
			site := fieldOf[cg]
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				verb, args, _ := strings.Cut(rest, " ")
				pos := s.fset.Position(c.Pos())
				dir := directive{
					pos: c.Pos(), line: pos.Line, file: pos.Filename,
					verb: verb, args: strings.TrimSpace(args), inDoc: owner,
					inField: site.field, fieldOwner: site.owner,
				}
				d.all = append(d.all, dir)
				switch verb {
				case "noalloc", "rankwide", "seqread":
					if owner != nil {
						marks := d.funcMarks[owner]
						if marks == nil {
							marks = map[string]bool{}
							d.funcMarks[owner] = marks
						}
						marks[verb] = true
					}
				case "allow":
					analyzer, _, _ := strings.Cut(dir.args, " ")
					if analyzer == "" {
						continue // validated later
					}
					if owner != nil {
						allows := d.funcAllows[owner]
						if allows == nil {
							allows = map[string]bool{}
							d.funcAllows[owner] = allows
						}
						allows[analyzer] = true
					} else {
						lines := d.lineAllows[dir.file]
						if lines == nil {
							lines = map[int]map[string]bool{}
							d.lineAllows[dir.file] = lines
						}
						for _, ln := range []int{dir.line, dir.line + 1} {
							if lines[ln] == nil {
								lines[ln] = map[string]bool{}
							}
							lines[ln][analyzer] = true
						}
					}
				}
			}
		}
	}
	sort.Slice(d.decls, func(i, j int) bool { return d.decls[i].Pos() < d.decls[j].Pos() })
	return d
}

// enclosingFunc returns the top-level function declaration containing pos.
func (d *directives) enclosingFunc(pos token.Pos) *ast.FuncDecl {
	i := sort.Search(len(d.decls), func(i int) bool { return d.decls[i].End() >= pos })
	if i < len(d.decls) && d.decls[i].Pos() <= pos && pos <= d.decls[i].End() {
		return d.decls[i]
	}
	return nil
}

// marked reports whether pos's enclosing function carries the verb.
func (d *directives) marked(verb string, pos token.Pos) bool {
	if fd := d.enclosingFunc(pos); fd != nil {
		return d.funcMarks[fd][verb]
	}
	return false
}

// markedDecl reports whether the declaration itself carries the verb.
func (d *directives) markedDecl(verb string, fd *ast.FuncDecl) bool {
	return d.funcMarks[fd][verb]
}

func (d *directives) allowed(analyzer string, pos token.Pos, line int, file string) bool {
	if lines := d.lineAllows[file]; lines != nil && lines[line][analyzer] {
		return true
	}
	if fd := d.enclosingFunc(pos); fd != nil && d.funcAllows[fd][analyzer] {
		return true
	}
	return false
}

// validateDirectives reports malformed or misplaced //chipkill: comments
// under the reserved "directive" analyzer name. These diagnostics bypass
// allow filtering: a typo cannot silence itself.
func (s *Suite) validateDirectives(pkg *Package) {
	known := s.analyzerNames()
	for _, dir := range pkg.dirs.all {
		switch dir.verb {
		case "noalloc", "rankwide", "seqread":
			if dir.inDoc == nil {
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("//chipkill:%s must be part of a function declaration's doc comment", dir.verb))
			}
		case "lock":
			if dir.inDoc == nil && dir.inField == nil {
				s.reportAlways("directive", dir.pos,
					"//chipkill:lock must be attached to a struct field or a function declaration")
				continue
			}
			name, _, _, perr := parseLockArgs(dir.args)
			if perr != "" {
				s.reportAlways("directive", dir.pos, perr)
				continue
			}
			if decl := s.locks.decls[name]; decl != nil && decl.pos != dir.pos {
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("lock %q redeclared (first declared at %s)", name, s.fset.Position(decl.pos)))
			}
		case "locks", "unlocks", "holds":
			if dir.inDoc == nil {
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("//chipkill:%s must be part of a function declaration's doc comment", dir.verb))
				continue
			}
			name := strings.TrimSpace(dir.args)
			switch {
			case name == "" || len(strings.Fields(name)) != 1:
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("//chipkill:%s needs exactly one lock name", dir.verb))
			case s.locks.decls[name] == nil:
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("//chipkill:%s references undeclared lock %q", dir.verb, name))
			}
		case "guardedby":
			if dir.inField == nil {
				s.reportAlways("directive", dir.pos,
					"//chipkill:guardedby must be attached to a struct field")
				continue
			}
			names := strings.Fields(dir.args)
			if len(names) == 0 {
				s.reportAlways("directive", dir.pos,
					"//chipkill:guardedby needs one or more lock names")
				continue
			}
			for _, name := range names {
				if s.locks.decls[name] == nil {
					s.reportAlways("directive", dir.pos,
						fmt.Sprintf("//chipkill:guardedby references undeclared lock %q", name))
				}
			}
		case "atomic":
			if dir.inField == nil {
				s.reportAlways("directive", dir.pos,
					"//chipkill:atomic must be attached to a struct field")
			} else if dir.args != "" {
				s.reportAlways("directive", dir.pos,
					"//chipkill:atomic takes no arguments")
			}
		case "allow":
			analyzer, reason, _ := strings.Cut(dir.args, " ")
			switch {
			case analyzer == "":
				s.reportAlways("directive", dir.pos,
					"//chipkill:allow needs an analyzer name and a reason: //chipkill:allow <analyzer> <reason>")
			case !known[analyzer]:
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("//chipkill:allow names unknown analyzer %q", analyzer))
			case strings.TrimSpace(reason) == "":
				s.reportAlways("directive", dir.pos,
					fmt.Sprintf("//chipkill:allow %s needs a reason", analyzer))
			}
		default:
			s.reportAlways("directive", dir.pos,
				fmt.Sprintf("unknown directive //chipkill:%s (known: noalloc, rankwide, seqread, lock, locks, unlocks, holds, guardedby, atomic, allow)", dir.verb))
		}
	}
}

// parseLockArgs parses "<name> level=<n> [ranked]"; perr is the
// diagnostic message on malformed input.
func parseLockArgs(args string) (name string, level int, ranked bool, perr string) {
	const usage = "//chipkill:lock needs a name and a level: //chipkill:lock <name> level=<n> [ranked]"
	fields := strings.Fields(args)
	if len(fields) == 0 {
		return "", 0, false, usage
	}
	name = fields[0]
	if strings.Contains(name, "=") {
		return "", 0, false, usage
	}
	haveLevel := false
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "level="):
			n, err := strconv.Atoi(strings.TrimPrefix(f, "level="))
			if err != nil {
				return "", 0, false, fmt.Sprintf("//chipkill:lock %s: bad level %q (want an integer)", name, strings.TrimPrefix(f, "level="))
			}
			level, haveLevel = n, true
		case f == "ranked":
			ranked = true
		default:
			return "", 0, false, fmt.Sprintf("//chipkill:lock %s: unknown option %q (want level=<n> or ranked)", name, f)
		}
	}
	if !haveLevel {
		return "", 0, false, usage
	}
	return name, level, ranked, ""
}

// ---- shared type helpers ----

// symbolKey canonicalises a function or method object to
// "pkgpath.Name" or "pkgpath.Recv.Name" (pointer receivers stripped),
// stable across separate type-check runs.
func symbolKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return pkg + "." + name + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// calleeOf resolves a call expression to its static *types.Func, or nil
// for dynamic calls (interface methods through values, func values),
// conversions, and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pathHasSuffix reports whether an import path equals suffix or ends in
// "/"+suffix — so the repo's real packages and testdata stub modules
// (e.g. "stubmod/internal/core") both match.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// methodOn reports whether fn is a method named name on the named type
// typeName declared in a package whose path ends in pkgSuffix.
func methodOn(fn *types.Func, pkgSuffix, typeName, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if !pathHasSuffix(fn.Pkg().Path(), pkgSuffix) {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && recvTypeName(sig.Recv().Type()) == typeName
}
