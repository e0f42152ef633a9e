package analysis_test

import (
	"strings"
	"testing"

	"chipkillpm/internal/analysis"
)

// TestDirectiveValidation checks that malformed //chipkill: comments are
// rejected under the reserved "directive" analyzer name. The
// expectations live here rather than as // want comments because a
// malformed directive's own line cannot carry one without changing how
// the directive parses.
func TestDirectiveValidation(t *testing.T) {
	suite := analysis.NewSuite(analysis.Sentinel)
	diags, err := suite.Run("testdata/directive", "./...")
	if err != nil {
		t.Fatalf("loading testdata/directive: %v", err)
	}

	expect := []string{
		`unknown directive //chipkill:frobnicate`,
		`//chipkill:noalloc must be part of a function declaration's doc comment`,
		`//chipkill:allow needs an analyzer name and a reason`,
		`//chipkill:allow names unknown analyzer "frobcheck"`,
		`//chipkill:allow names unknown analyzer "bankaccess"`,
		`//chipkill:allow noalloc needs a reason`,
		`lock "d.box" redeclared`,
		`//chipkill:lock needs a name and a level`,
		`bad level "ten"`,
		`//chipkill:lock must be attached to a struct field or a function declaration`,
		`//chipkill:holds references undeclared lock "d.absent"`,
		`//chipkill:locks references undeclared lock "d.unknown"`,
		`//chipkill:guardedby must be attached to a struct field`,
		`//chipkill:guardedby references undeclared lock "d.missing"`,
		`//chipkill:atomic takes no arguments`,
		`//chipkill:atomic must be attached to a struct field`,
	}
	var directiveDiags []analysis.Diagnostic
	for _, d := range diags {
		if d.Analyzer == "directive" {
			directiveDiags = append(directiveDiags, d)
		} else {
			t.Errorf("unexpected non-directive diagnostic: %s", d)
		}
	}
	for _, want := range expect {
		found := false
		for _, d := range directiveDiags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive diagnostic containing %q (got %v)", want, directiveDiags)
		}
	}
	if len(directiveDiags) != len(expect) {
		t.Errorf("got %d directive diagnostics, want %d: %v", len(directiveDiags), len(expect), directiveDiags)
	}
}
