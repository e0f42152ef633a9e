package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.N() != 0 {
		t.Error("empty mean not zero")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 || m.N() != 2 {
		t.Errorf("mean=%v n=%v", m.Value(), m.N())
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean=%v, want 2", g)
	}
	if g := GeoMean([]float64{2, 0, 8, -1}); math.Abs(g-4) > 1e-12 {
		t.Errorf("non-positive entries not ignored: %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty GeoMean not 0")
	}
}

func TestGeoMeanBetweenMinMaxQuick(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			vs[i] = float64(r) + 1
			lo = math.Min(lo, vs[i])
			hi = math.Max(hi, vs[i])
		}
		g := GeoMean(vs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "12345")
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "12345") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}
