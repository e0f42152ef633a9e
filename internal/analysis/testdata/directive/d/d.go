// Package d holds deliberately malformed //chipkill: directives; the
// suite's validator must reject each one (see directive_test.go — the
// expectations live there because a malformed directive's own line
// cannot also carry a want comment without changing how it parses).
package d

import "sync"

//chipkill:frobnicate
var mu sync.Mutex

func misplaced() {
	//chipkill:noalloc
	mu.Lock()
	mu.Unlock()
}

func missingAnalyzer() {
	//chipkill:allow
	mu.Lock()
	mu.Unlock()
}

func unknownAnalyzer() {
	//chipkill:allow frobcheck spurious finding
	mu.Lock()
	mu.Unlock()
}

// staleAnalyzer names an analyzer that was merged away: the allow must
// fail loudly instead of silently suppressing nothing.
func staleAnalyzer() {
	//chipkill:allow bankaccess serial harness, no concurrent readers
	mu.Lock()
	mu.Unlock()
}

func missingReason() {
	//chipkill:allow noalloc
	mu.Lock()
	mu.Unlock()
}

// wellFormed carries a valid allow that must produce no diagnostic.
func wellFormed() {
	//chipkill:allow sentinel example of a well-formed directive
	mu.Lock()
	mu.Unlock()
}
