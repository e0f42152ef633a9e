// Package stats provides small statistics helpers shared by the simulator
// and the experiment harness: running means and a geometric mean, plus
// fixed-width table rendering for experiment output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean is an online arithmetic mean.
type Mean struct {
	n   int64
	sum float64
}

// Add accumulates one observation.
func (m *Mean) Add(v float64) { m.n++; m.sum += v }

// Value returns the mean, or 0 when empty.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the number of observations.
func (m *Mean) N() int64 { return m.n }

// GeoMean returns the geometric mean of vs, ignoring non-positive entries.
func GeoMean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table renders rows of labelled values as a fixed-width text table, used
// by cmd/experiments to print each figure's series.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
