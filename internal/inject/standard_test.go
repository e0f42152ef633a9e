//go:build !race

package inject

import "testing"

// TestStandardSuite is the full acceptance gate, including the paper's
// fallback-rate band. Heavy: skipped in -short mode and not built under
// -race (the race build runs TestConcurrentCampaign instead).
func TestStandardSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("standard suite is heavy; run without -short")
	}
	rep := requireSuitePass(t, "standard", 1)
	if rep.TotalSDC != 0 {
		t.Fatalf("standard suite saw %d SDCs", rep.TotalSDC)
	}
	if rep.TotalDUE != 0 {
		t.Fatalf("standard suite saw %d DUEs", rep.TotalDUE)
	}
}
