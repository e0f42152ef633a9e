package analysis

import (
	"go/token"
	"go/types"
)

// RankWide enforces the two halves of the degraded-mode read guarantee
// that depend on call context (DESIGN.md §11): rank-wide maintenance and
// fault injection never overlap demand traffic, and no engine write
// lets a lock-free reader see a half-applied mutation with an even
// sequence. Every policed call must run with engine.rank held — inside
// a literal passed to (*engine.Engine).Quiesce, or in a function marked
// //chipkill:holds engine.rank — as the lock graph records it, or in
// the second context its row accepts:
//
//   - maintenance and quiescence rows: an enclosing function marked
//     //chipkill:rankwide (the author asserts a rank-wide context: the
//     serial boot path, the single supervision goroutine, or the
//     migration cursor's single-writer protocol);
//   - the seqlock-writer row, which applies inside internal/engine only:
//     a (*shard).lockWrite earlier in the same function, opening that
//     shard's writer section.
//
// internal/nvram and internal/rank implement the quiescence contract, so
// their internal fan-out calls are exempt.
var RankWide = &Analyzer{
	Name:          "rankwide",
	Doc:           "rank-wide maintenance, quiescence-class chip mutations and seqlock-covered writes only from their accepted contexts",
	SkipTestFiles: true,
	Run:           runRankWide,
}

// A rankWideRow is one set of policed methods, matched by package-path
// suffix so testdata stub modules exercise the analyzer without
// importing the real packages.
type rankWideRow struct {
	pkgSuffix, typeName string
	methods             map[string]bool
	what                string // diagnostic noun
	// writer marks the seqlock-writer row.
	writer bool
}

var rankWideRows = []rankWideRow{
	{"internal/core", "Controller", map[string]bool{
		"BootScrub": true, "EnterDegradedMode": true, "AdoptDegradedMode": true,
		"BeginMigration": true, "JoinMigration": true, "MigrateBand": true,
		"RedoBand": true, "FinishMigration": true, "PatrolScrub": true,
	}, "rank-wide operation", false},
	{"internal/engine", "Engine", map[string]bool{
		"BootScrub": true, "EnterDegradedMode": true, "AdoptDegradedMode": true,
		"BeginMigration": true, "MigrateBand": true,
		"RedoBand": true, "FinishMigration": true, "PatrolScrub": true,
	}, "rank-wide operation", false},
	// Bank-scoped chip methods (CloseBankRows, the demand reads and
	// writes) are not policed: per-bank disjointness makes them
	// shardable.
	{"internal/nvram", "Chip", map[string]bool{
		"Fail": true, "Repair": true, "CloseAllRows": true,
		"InjectRetentionErrors": true, "WearOutBit": true,
		"FlipDataBit": true, "FlipCodeBit": true,
	}, "quiescence-class chip mutation", false},
	{"internal/rank", "Rank", map[string]bool{
		"FailChip": true, "InjectRetentionErrors": true, "CloseAllRows": true,
	}, "quiescence-class chip mutation", false},
	// The controller operations that mutate what the lock-free reader
	// gathers: data cells, or the layout that says what they mean.
	// BeginMigration/JoinMigration only set routing state, which readers
	// learn through the engine's atomic publication instead.
	{"internal/core", "Controller", map[string]bool{
		"WriteBlock": true, "WriteBlockInitial": true, "DisableBlock": true,
		"BootScrub": true, "EnterDegradedMode": true, "AdoptDegradedMode": true,
		"MigrateBand": true, "RedoBand": true, "FinishMigration": true,
		"PatrolScrub": true,
	}, "seqlock-covered mutation", true},
}

func (r *rankWideRow) polices(fn *types.Func) bool {
	return r.methods[fn.Name()] && methodOn(fn, r.pkgSuffix, r.typeName, fn.Name())
}

// accepts reports whether a policed call at pos runs in an accepted
// context: engine.rank held, or the row's second context.
func (r *rankWideRow) accepts(pass *Pass, sc *lockScan, pos token.Pos) bool {
	switch {
	case containsStr(sc.heldAt(pos), "engine.rank"):
		return true
	case r.writer:
		return sc.lockWriteBefore(pos)
	}
	return pass.Pkg.dirs.marked("rankwide", pos)
}

func runRankWide(pass *Pass) {
	g := pass.Suite.locks
	path := pass.Pkg.PkgPath
	if g == nil || pathHasSuffix(path, "internal/nvram") || pathHasSuffix(path, "internal/rank") {
		return
	}
	inEngine := pathHasSuffix(path, "internal/engine")
	for _, sc := range g.scans[pass.Pkg] {
		for _, c := range sc.calls {
			for i := range rankWideRows {
				row := &rankWideRows[i]
				if !row.polices(c.fn) || row.writer && !inEngine || row.accepts(pass, sc, c.pos) {
					continue
				}
				context := "a //chipkill:rankwide function"
				if row.writer {
					context = "a shard writer section (no preceding lockWrite)"
				}
				pass.Reportf(c.pos, "%s %s called without engine.rank held and outside %s",
					row.what, symbolKey(c.fn), context)
			}
		}
	}
}

// lockWriteBefore reports whether the scanned body calls
// (*shard).lockWrite before pos. Lexical order is the right
// approximation: every writer section in the engine is a straight
// lockWrite ... unlockWrite bracket within one function, and a mutator
// above its lockWrite is exactly the bug being policed.
func (sc *lockScan) lockWriteBefore(pos token.Pos) bool {
	for _, c := range sc.calls {
		if c.pos < pos && methodOn(c.fn, "internal/engine", "shard", "lockWrite") {
			return true
		}
	}
	return false
}
