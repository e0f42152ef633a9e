// Package rank is a stub of the real internal/rank. As an owning
// package of the quiescence contract, its internal fan-out calls are
// the mechanism itself and must not be flagged.
package rank

import "rankstub/internal/nvram"

type Rank struct {
	chips []*nvram.Chip
}

func (r *Rank) FailChip(i int) {
	r.chips[i].Fail()
}

func (r *Rank) CloseAllRows() {
	for _, c := range r.chips {
		c.CloseAllRows()
	}
}

func (r *Rank) InjectRetentionErrors(n int) {
	for _, c := range r.chips {
		c.InjectRetentionErrors(n)
	}
}
