package experiments

import (
	"math/rand"

	"chipkillpm/internal/reliability"
	"chipkillpm/internal/rs"
	"chipkillpm/internal/stats"
)

// AblationThreshold explores the RS acceptance threshold (Sec V-C's
// design choice): the analytical SDC rate against the VLEW fallback rate
// for t in 0..4 at RBER 2e-4.
func AblationThreshold() *stats.Table {
	tab := &stats.Table{Header: []string{"threshold", "SDC rate", "meets 1e-17", "fallback rate", "read bw overhead"}}
	for t := 0; t <= 4; t++ {
		m := relMiscorrection(t)
		sdc := m.SDCRate()
		fb := relFallback(t)
		meets := "no"
		if sdc <= 1e-17 {
			meets = "yes"
		}
		tab.AddRow(f("%d", t), f("%.1e", sdc), meets,
			f("%.2e", fb), f("%.3f%%", 100*fb*37))
	}
	return tab
}

// TermBValidation empirically validates the appendix's Term B — the
// probability that a noncodeword with nth = d - t errors decodes into a
// (wrong) codeword — against the real Reed-Solomon decoder: inject
// exactly nth random byte errors into RS(72,64) codewords, decode with
// correction capability t, and count miscorrections. For t = 4
// (nth = 5), Term B predicts 2.4e-4.
type TermBValidation struct {
	T             int
	NTh           int
	Trials        int64
	Miscorrected  int64
	Uncorrectable int64
	Predicted     float64
}

// Rate returns the measured miscorrection probability.
func (v TermBValidation) Rate() float64 {
	if v.Trials == 0 {
		return 0
	}
	return float64(v.Miscorrected) / float64(v.Trials)
}

// ValidateTermB runs the campaign for correction capability t.
func ValidateTermB(t int, trials int64, seed int64) (TermBValidation, error) {
	code, err := rs.New(64, 8)
	if err != nil {
		return TermBValidation{}, err
	}
	m := reliability.RSMiscorrection{K: 64, R: 8, T: t, RBER: 2e-4}
	v := TermBValidation{T: t, NTh: m.NTh(), Predicted: m.TermB()}
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64)
	for i := int64(0); i < trials; i++ {
		rng.Read(data)
		check := code.Encode(data)
		// Exactly nth distinct byte errors across the 72-byte word.
		for _, p := range rng.Perm(code.N())[:v.NTh] {
			delta := byte(1 + rng.Intn(255))
			if p < code.K() {
				data[p] ^= delta
			} else {
				check[p-code.K()] ^= delta
			}
		}
		corr, derr := code.DecodeLimitedAppend(nil, data, check, t)
		switch {
		case derr == nil && len(corr) <= t:
			// The decoder "fixed" the word — onto the wrong codeword.
			v.Miscorrected++
		default:
			v.Uncorrectable++
		}
		v.Trials++
	}
	return v, nil
}

// TermBTable renders validations against the analytical prediction.
func TermBTable(vs []TermBValidation) *stats.Table {
	tab := &stats.Table{Header: []string{"t", "nth", "trials", "miscorrections", "measured Term B", "predicted Term B"}}
	for _, v := range vs {
		tab.AddRow(f("%d", v.T), f("%d", v.NTh), f("%d", v.Trials),
			f("%d", v.Miscorrected), f("%.2e", v.Rate()), f("%.2e", v.Predicted))
	}
	return tab
}
