package experiments

import (
	"bytes"
	"math/rand"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/reliability"
	"chipkillpm/internal/rs"
	"chipkillpm/internal/stats"
)

// MonteCarloResult summarises a fault-injection campaign on the functional
// memory model.
type MonteCarloResult struct {
	Scenario      string
	Trials        int64
	BlocksRead    int64
	WrongData     int64 // silent data corruptions observed
	Uncorrectable int64 // detected-but-uncorrectable blocks
	RSFallbacks   int64
	ChipRepairs   int64
}

// newSmallSystem builds a small paper-shaped rank + controller.
func newSmallSystem(seed int64) (*core.Controller, error) {
	r, err := rank.New(rank.PaperConfig(2, 8, 1024, seed))
	if err != nil {
		return nil, err
	}
	return core.NewController(r, core.DefaultConfig(), nil)
}

// MonteCarloRuntime injects random retention errors at the given RBER and
// reads every block through the runtime path, verifying data integrity.
//
//chipkill:rankwide
func MonteCarloRuntime(rber float64, rounds int, seed int64) (MonteCarloResult, error) {
	res := MonteCarloResult{Scenario: "runtime bit errors"}
	ctrl, err := newSmallSystem(seed)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(seed))
	ref := make(map[int64][]byte)
	for b := int64(0); b < ctrl.Rank().Blocks(); b++ {
		data := make([]byte, 64)
		rng.Read(data)
		if err := ctrl.WriteBlockInitial(b, data); err != nil {
			return res, err
		}
		ref[b] = data
	}
	got := make([]byte, 64)
	for round := 0; round < rounds; round++ {
		res.Trials++
		ctrl.Rank().InjectRetentionErrors(rber)
		for b := int64(0); b < ctrl.Rank().Blocks(); b++ {
			res.BlocksRead++
			if err := ctrl.ReadBlockInto(b, got); err != nil {
				res.Uncorrectable++
				continue
			}
			if !bytes.Equal(got, ref[b]) {
				res.WrongData++
			}
		}
		// Scrub between rounds so errors do not accumulate unboundedly
		// (the runtime model assumes periodic refresh).
		ctrl.BootScrub()
	}
	res.RSFallbacks = ctrl.Stats().ReadsVLEWFallback
	return res, nil
}

// MonteCarloOutage simulates repeated power outages: each trial injects
// boot-time-level errors (optionally with a chip failure), scrubs, and
// verifies every block.
//
//chipkill:rankwide
func MonteCarloOutage(rber float64, rounds int, withChipFailure bool, seed int64) (MonteCarloResult, error) {
	res := MonteCarloResult{Scenario: "boot-time outage"}
	if withChipFailure {
		res.Scenario = "boot-time outage + chip failure"
	}
	rng := rand.New(rand.NewSource(seed))
	got := make([]byte, 64)
	for round := 0; round < rounds; round++ {
		res.Trials++
		ctrl, err := newSmallSystem(seed + int64(round)*17)
		if err != nil {
			return res, err
		}
		ref := make(map[int64][]byte)
		for b := int64(0); b < ctrl.Rank().Blocks(); b++ {
			data := make([]byte, 64)
			rng.Read(data)
			if err := ctrl.WriteBlockInitial(b, data); err != nil {
				return res, err
			}
			ref[b] = data
		}
		if withChipFailure {
			ctrl.Rank().FailChip(rng.Intn(ctrl.Rank().NumChips()))
		}
		ctrl.Rank().InjectRetentionErrors(rber)
		rep := ctrl.BootScrub()
		if rep.Unrecoverable {
			res.Uncorrectable += ctrl.Rank().Blocks()
			continue
		}
		res.ChipRepairs += int64(len(rep.ChipsRebuilt))
		for b := int64(0); b < ctrl.Rank().Blocks(); b++ {
			res.BlocksRead++
			if err := ctrl.ReadBlockInto(b, got); err != nil {
				res.Uncorrectable++
				continue
			}
			if !bytes.Equal(got, ref[b]) {
				res.WrongData++
			}
		}
	}
	return res, nil
}

// MonteCarloTable renders campaign results.
func MonteCarloTable(results []MonteCarloResult) *stats.Table {
	tab := &stats.Table{Header: []string{"scenario", "trials", "blocks read", "SDC", "DUE", "VLEW fallbacks", "chips rebuilt"}}
	for _, r := range results {
		tab.AddRow(r.Scenario, f("%d", r.Trials), f("%d", r.BlocksRead),
			f("%d", r.WrongData), f("%d", r.Uncorrectable),
			f("%d", r.RSFallbacks), f("%d", r.ChipRepairs))
	}
	return tab
}

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
		corr, derr := code.DecodeLimited(data, check, t)
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
