// Package analysistest runs chipkillvet analyzers over self-contained
// testdata modules and checks the produced diagnostics against
// expectations written in the source as "// want" comments — the same
// convention as golang.org/x/tools' analysistest, reimplemented here on
// the standard library only.
//
// An expectation is a comment of the form
//
//	// want `regexp` `regexp` ...
//
// attached to the line the diagnostic is reported on. Each regexp must
// match one diagnostic (formatted "analyzer: message") on that line;
// every diagnostic must be claimed by exactly one expectation. Both
// backquoted and double-quoted Go string literals are accepted.
package analysistest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"chipkillpm/internal/analysis"
)

// wantRe matches the expectation marker; string literals follow it.
var wantRe = regexp.MustCompile("// want ((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)$")

// tokenRe matches one Go string literal (backquoted or double-quoted).
var tokenRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one parsed want regexp, with match bookkeeping.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads dir (a standalone module) with the given analyzers,
// runs the suite over every package in it, and reports mismatches
// between diagnostics and // want expectations as test errors.
// It returns the raw diagnostics for any extra assertions.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	return RunPackages(t, dir, []string{"./..."}, analyzers...)
}

// RunPackages is Run restricted to the packages matched by patterns,
// each "./path" or "./path/..." relative to the module root: only those
// packages are analysed (their imports load as dependencies), and only
// the expectations in their files must be met.
func RunPackages(t *testing.T, dir string, patterns []string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if _, err := os.Stat(filepath.Join(abs, "go.mod")); err != nil {
		t.Fatalf("analysistest: %s is not a module root: %v", abs, err)
	}

	suite := analysis.NewSuite(analyzers...)
	diags, err := suite.Run(abs, patterns...)
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", abs, err)
	}

	var wants []expectation
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(filepath.Join(abs, pat), string(filepath.Separator)+"...")
		w, err := parseWants(root, recursive)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		wants = append(wants, w...)
	}

	// Index expectations by position for set-wise per-line matching.
	byLine := map[string][]*expectation{}
	for i := range wants {
		w := &wants[i]
		key := fmt.Sprintf("%s:%d", w.file, w.line)
		byLine[key] = append(byLine[key], w)
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		text := d.Analyzer + ": " + d.Message
		claimed := false
		for _, w := range byLine[key] {
			if !w.matched && w.re.MatchString(text) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s: %s", key, text)
		}
	}
	for i := range wants {
		if !wants[i].matched {
			t.Errorf("%s:%d: no diagnostic matching %s", wants[i].file, wants[i].line, wants[i].raw)
		}
	}
	return diags
}

// parseWants scans every .go file in root, and in its subdirectories
// when recursive, for want expectations.
func parseWants(root string, recursive bool) ([]expectation, error) {
	var wants []expectation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && !recursive {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(strings.TrimRight(line, " \t"))
			if m == nil {
				continue
			}
			for _, tok := range tokenRe.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(tok)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want literal %s: %v", path, i+1, tok, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp %s: %v", path, i+1, tok, err)
				}
				wants = append(wants, expectation{file: path, line: i + 1, re: re, raw: tok})
			}
		}
		return nil
	})
	return wants, err
}
