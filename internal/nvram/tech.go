// Package nvram models high-density NVRAM memory chips: banked row-
// organised storage, retention-driven stochastic raw bit errors, the
// paper's per-row VLEW code-bit regions, an embedded linear BCH encoder,
// and the ECC Update Registerfile (EUR) that coalesces code-bit updates
// until row close (paper Sec V-D, Figs 6 and 11).
//
// The package is purely functional: it stores real bytes and injects real
// bit errors. Timing is modelled separately in internal/memctrl.
package nvram

import (
	"fmt"
	"math"
)

// Tech describes an NVRAM technology: its access latencies (used by the
// timing model) and its retention behaviour, i.e. how the raw bit error
// rate (RBER) grows with time since the last write or refresh.
//
// The RBER curves are log-log interpolations through anchor points taken
// from the studies the paper cites (Fig 1): ReRAM reaches 1e-3 one year
// after refresh and ~7e-5 at runtime refresh intervals; 3-bit PCM reaches
// 1e-3 one week after refresh, 2e-4 at one hour, 7e-5 at one second.
type Tech struct {
	Name         string
	ReadLatency  float64 // ns, maps to tRCD in the timing model
	WriteLatency float64 // ns, maps to tWR in the timing model
	anchors      []rberAnchor
}

type rberAnchor struct {
	seconds float64
	rber    float64
}

// Paper-modelled technologies. Latencies follow Sec VI: ReRAM 120 ns read
// / 300 ns write, PCM 250 ns read / 600 ns write.
var (
	// ReRAM: runtime RBER ~7e-5 [63], 1e-3 one year since refresh [63].
	ReRAM = Tech{
		Name: "ReRAM", ReadLatency: 120, WriteLatency: 300,
		anchors: []rberAnchor{{1, 7e-5}, {3600, 1.3e-4}, {604800, 4e-4}, {31536000, 1e-3}},
	}
	// 3-bit PCM: 7e-5 at 1 s, 2e-4 at 1 h, 1e-3 at 1 week [60].
	PCM3 = Tech{
		Name: "3-bit PCM", ReadLatency: 250, WriteLatency: 600,
		anchors: []rberAnchor{{1, 7e-5}, {3600, 2e-4}, {604800, 1e-3}},
	}
	// 2-bit PCM: roughly an order of magnitude below 3-bit PCM [60], [61].
	PCM2 = Tech{
		Name: "2-bit PCM", ReadLatency: 250, WriteLatency: 600,
		anchors: []rberAnchor{{1, 5e-6}, {3600, 2e-5}, {604800, 1e-4}, {31536000, 3e-4}},
	}
	// MLC Flash for comparison (Fig 1): ~1e-4 a day after write, 100x
	// higher three months later (Cai et al. [66]).
	FlashMLC = Tech{
		Name: "MLC Flash", ReadLatency: 25000, WriteLatency: 200000,
		anchors: []rberAnchor{{86400, 1e-4}, {7776000, 1e-2}},
	}
	// DRAM's *cell fault rate* band for comparison (Fig 1): errors are
	// dominated by permanent faults, not retention, so the curve is flat.
	DRAM = Tech{
		Name: "DRAM (cell fault rate)", ReadLatency: 14, WriteLatency: 15,
		anchors: []rberAnchor{{1, 1e-5}, {31536000, 1e-5}},
	}
)

// RBER returns the technology's raw bit error rate after the given time
// since last write or refresh, interpolated log-log between anchors and
// clamped at the ends.
func (t Tech) RBER(secondsSinceRefresh float64) float64 {
	a := t.anchors
	if len(a) == 0 {
		return 0
	}
	s := secondsSinceRefresh
	if s <= a[0].seconds {
		return a[0].rber
	}
	last := a[len(a)-1]
	if s >= last.seconds {
		return last.rber
	}
	for i := 1; i < len(a); i++ {
		if s <= a[i].seconds {
			x0, x1 := math.Log(a[i-1].seconds), math.Log(a[i].seconds)
			y0, y1 := math.Log(a[i-1].rber), math.Log(a[i].rber)
			f := (math.Log(s) - x0) / (x1 - x0)
			return math.Exp(y0 + f*(y1-y0))
		}
	}
	return last.rber
}

// String implements fmt.Stringer.
func (t Tech) String() string { return t.Name }

// Fig1Technologies returns the technologies plotted in Figure 1.
func Fig1Technologies() []Tech {
	return []Tech{PCM2, PCM3, ReRAM, FlashMLC, DRAM}
}

// Common refresh/outage intervals, in seconds.
const (
	Second = 1.0
	Hour   = 3600.0
	Day    = 86400.0
	Week   = 604800.0
	Month  = 2592000.0
	Year   = 31536000.0
)

func formatDuration(s float64) string {
	switch {
	case s < 60:
		return fmt.Sprintf("%.0fs", s)
	case s < 3600:
		return fmt.Sprintf("%.0fm", s/60)
	case s < 86400:
		return fmt.Sprintf("%.0fh", s/3600)
	case s < 604800:
		return fmt.Sprintf("%.0fd", s/86400)
	case s < 31536000:
		return fmt.Sprintf("%.1fw", s/604800)
	default:
		return fmt.Sprintf("%.1fy", s/31536000)
	}
}

// FormatInterval renders a seconds value using the largest natural unit;
// exported for use by the experiment harness's tables.
func FormatInterval(s float64) string { return formatDuration(s) }
