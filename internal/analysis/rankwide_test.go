package analysis_test

import (
	"testing"

	"chipkillpm/internal/analysis"
	"chipkillpm/internal/analysis/analysistest"
)

func TestRankWide(t *testing.T) {
	analysistest.Run(t, "testdata/rankwide", analysis.RankWide)
}

// TestShardLock checks the maintenance row on its own: rank-wide
// controller and engine operations called from demand-path code.
func TestShardLock(t *testing.T) {
	analysistest.RunPackages(t, "testdata/rankwide", []string{"./use", "./internal/core"}, analysis.RankWide)
}

// TestBankAccess checks the quiescence row on its own: chip and rank
// mutations that need every bank of the rank quiet.
func TestBankAccess(t *testing.T) {
	analysistest.RunPackages(t, "testdata/rankwide", []string{"./inject", "./internal/nvram", "./internal/rank"}, analysis.RankWide)
}
