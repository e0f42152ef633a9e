// Package reliability implements the paper's analytical models: standard
// combinatorial error-probability analysis (Sec III), the miscorrection
// (silent-data-corruption) model of the appendix, and the storage-cost
// models behind Figures 2, 3 and 4.
//
// All probabilities are computed in log space so that tails as small as
// 1e-22 (the paper's t=2 SDC rate) remain exact in float64.
package reliability

import "math"

// LogChoose returns ln C(n, k) computed via the log-gamma function.
// It returns -Inf for k < 0 or k > n.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// BinomPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// BinomTail returns P[X >= k] for X ~ Binomial(n, p). For the far tails
// used in this repository (k well above n*p), summing PMF terms upward is
// numerically exact because successive terms shrink geometrically.
func BinomTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		term := BinomPMF(n, i, p)
		sum += term
		// Terms decay fast beyond the mean; stop once negligible.
		if term > 0 && term < sum*1e-18 && float64(i) > float64(n)*p {
			break
		}
	}
	return math.Min(sum, 1)
}

// ByteErrorRate converts a raw bit error rate into the probability that an
// s-bit symbol contains at least one bit error: 1 - (1-rber)^s.
func ByteErrorRate(rber float64, symbolBits int) float64 {
	return -math.Expm1(float64(symbolBits) * math.Log1p(-rber))
}

// FracAccessesWithErrors returns the fraction of memory accesses of the
// given size (in bits) that contain at least one raw bit error at the
// given RBER. The paper evaluates 72 B accesses (64 B data + 8 B RS check
// bytes): 4% at 7e-5 and ~10% at 2e-4 (Sec IV-A).
func FracAccessesWithErrors(bits int, rber float64) float64 {
	return ByteErrorRate(rber, bits)
}
