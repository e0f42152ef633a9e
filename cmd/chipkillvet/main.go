// Command chipkillvet runs the repository's contract analyzers
// (internal/analysis) over a set of packages:
//
//	noalloc    — //chipkill:noalloc functions must not allocate,
//	             transitively through statically resolvable callees
//	rankwide   — rank-wide maintenance and quiescence-class chip
//	             mutations only with engine.rank held or from
//	             //chipkill:rankwide functions; seqlock-covered engine
//	             writes only with engine.rank held or after a lockWrite
//	sentinel   — errors.Is over ==/string matching; no dropped
//	             persistence-critical errors
//	seqlock    — //chipkill:seqread functions stay pure
//	lockorder  — //chipkill:lock levels must strictly increase along
//	             every acquisition path; no nested quiesce (directly,
//	             transitively, or through registered hooks); ranked
//	             locks taken in ascending index order
//	guardedby  — //chipkill:guardedby fields only touched with a named
//	             lock held; //chipkill:atomic fields only through
//	             sync/atomic
//
// Usage:
//
//	go run ./cmd/chipkillvet [-C dir] [-json] [-out file] [packages]
//
// Packages default to ./... . Exit status is 0 when clean, 1 when any
// analyzer reported a finding, 2 when loading or type-checking failed.
// -json prints findings as a JSON array instead of vet-style lines;
// -out additionally writes that JSON to a file (for CI artifacts) while
// keeping the human-readable lines on stdout. Intentional exceptions
// are annotated in the source with //chipkill:allow <analyzer> <reason>
// (see internal/analysis).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"chipkillpm/internal/analysis"
)

// jsonDiag is the stable shape of one finding in -json/-out output.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	dir := flag.String("C", ".", "directory to resolve packages in")
	list := flag.Bool("list", false, "print the analyzers and exit")
	asJSON := flag.Bool("json", false, "print findings as a JSON array on stdout")
	out := flag.String("out", "", "also write the JSON findings to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: chipkillvet [-C dir] [-list] [-json] [-out file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	suite := analysis.NewSuite(analyzers...)
	diags, err := suite.Run(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chipkillvet: %v\n", err)
		os.Exit(2)
	}

	base, err := filepath.Abs(*dir)
	if err != nil {
		base = ""
	}
	records := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		name := d.Pos.Filename
		if base != "" {
			if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		records = append(records, jsonDiag{
			File: name, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}

	if *out != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "chipkillvet: encoding findings: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chipkillvet: %v\n", err)
			os.Exit(2)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "chipkillvet: encoding findings: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, r := range records {
			fmt.Printf("%s:%d:%d: %s: %s\n", r.File, r.Line, r.Column, r.Analyzer, r.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "chipkillvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
