//go:build !amd64

package bch

// hasCLMUL is false off amd64: the remainder always takes the table kernel.
const hasCLMUL = false

// clmulFeed264 is never called off amd64, where buildEncTables leaves the
// Barrett constants nil.
//
//chipkill:noalloc
func clmulFeed264(k *[6]uint64, state *[5]uint64, data []byte) {
	panic("bch: carry-less-multiply remainder kernel called off amd64")
}
