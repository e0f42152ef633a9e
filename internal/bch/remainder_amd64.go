package bch

// hasCLMUL reports whether this CPU runs clmulFeed264: it needs PCLMULQDQ
// (CPUID leaf 1, ECX bit 1) and SSSE3 for PALIGNR (ECX bit 9).
var hasCLMUL = cpuid1ECX()&(1<<1|1<<9) == 1<<1|1<<9

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() (ecx uint32)

// clmulFeed264 runs feed264's whole eight-byte steps, highest chunk first,
// as carry-less-multiply Barrett reductions; len(data) is a multiple of
// eight. k holds mu_lo and g0..g4 (see encTables.clmul) and state the
// 264-bit LFSR state, which stays in XMM registers for the whole loop.
//
//go:noescape
//chipkill:noalloc
func clmulFeed264(k *[6]uint64, state *[5]uint64, data []byte)
