// Package a exercises the noalloc analyzer: annotated functions with
// clean bodies, direct allocating constructs, transitive allocation
// through unannotated helpers, the panic exemption, and the line-level
// allow escape hatch.
package a

import (
	"fmt"
	"sync/atomic"
)

var counter int64

// sum is the clean case: loops, arithmetic, atomics, copies, and basic
// conversions never allocate.
//
//chipkill:noalloc
func sum(dst, src []byte) int {
	atomic.AddInt64(&counter, 1)
	n := copy(dst, src)
	for i := range dst {
		n += int(dst[i])
	}
	return n
}

// okCallsAnnotated trusts its annotated callee; sum is checked at its
// own declaration.
//
//chipkill:noalloc
func okCallsAnnotated(dst, src []byte) int {
	return sum(dst, src)
}

//chipkill:noalloc
func badMake(n int) []byte {
	buf := make([]byte, n) // want `make allocates`
	return buf
}

//chipkill:noalloc
func badAppend(dst []byte, b byte) []byte {
	return append(dst, b) // want `append may grow`
}

//chipkill:noalloc
func badClosure(n int) func() int {
	return func() int { return n } // want `closure may allocate`
}

//chipkill:noalloc
func badConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//chipkill:noalloc
func badBox(x int) any {
	return x // want `interface boxing of non-pointer int`
}

//chipkill:noalloc
func badDynamic(f func() int) int {
	return f() // want `dynamic call`
}

//chipkill:noalloc
func badFmt(n int) string {
	return fmt.Sprintf("%d", n) // want `calls fmt.Sprintf, which allocates` `interface boxing of non-pointer int`
}

// helper allocates and carries no annotation. This is the
// annotation-removal scenario: stripping //chipkill:noalloc from a
// helper while adding an allocation to it does not escape the checker —
// every still-annotated caller reports the call transitively.
func helper(n int) []byte {
	return make([]byte, n)
}

//chipkill:noalloc
func badTransitive(n int) []byte {
	return helper(n) // want `calls noallocstub/a.helper, which allocates`
}

// mid is clean itself; the allocation is two hops down.
func mid(n int) []byte {
	return helper(n)
}

//chipkill:noalloc
func badTwoHops(n int) []byte {
	return mid(n) // want `calls noallocstub/a.mid, which allocates`
}

// okPanic shows the panic exemption: a panicking process has no
// allocation budget to protect, so arguments to panic may allocate.
//
//chipkill:noalloc
func okPanic(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("index %d out of range [0,%d)", i, n))
	}
}

// okAllow uses the line-level escape hatch for a measured cold path.
//
//chipkill:noalloc
func okAllow(n int) []byte {
	//chipkill:allow noalloc cold path, covered by AllocsPerRun pin
	return make([]byte, n)
}

// The write-chain shape: a chip-like type whose annotated write path
// (writeXOR -> openRow -> closeRow -> drainSlot) stays allocation-free by
// drawing every buffer from per-bank scratch owned by the struct. This is
// the contract the real nvram.Chip write pipeline is held to.

type bankScratch struct {
	parity []byte
	delta  []byte
}

type fakeChip struct {
	bank []bankScratch
	open []int
	code []byte
}

//chipkill:noalloc
func (c *fakeChip) drainSlot(bank int) {
	p := c.bank[bank].parity
	for i := range p {
		p[i] ^= c.bank[bank].delta[i]
	}
	copy(c.code, p)
}

//chipkill:noalloc
func (c *fakeChip) closeRow(bank int) {
	c.drainSlot(bank)
	c.open[bank] = -1
}

//chipkill:noalloc
func (c *fakeChip) openRow(bank, row int) {
	if c.open[bank] >= 0 {
		c.closeRow(bank)
	}
	c.open[bank] = row
}

//chipkill:noalloc
func (c *fakeChip) writeXOR(bank, row int, delta []byte) {
	c.openRow(bank, row)
	d := c.bank[bank].delta
	for i, v := range delta {
		d[i] ^= v
	}
}

// badDrainSlot is the regression the annotation guards against: a drain
// that builds its parity buffer fresh instead of using bank scratch.
//
//chipkill:noalloc
func (c *fakeChip) badDrainSlot(bank int) {
	p := make([]byte, len(c.code)) // want `make allocates`
	for i := range p {
		p[i] ^= c.bank[bank].delta[i]
	}
	copy(c.code, p)
}

// badCloseRow shows the annotation-removal scenario on the chain itself:
// if drainSlot lost its annotation and grew an allocation, every
// still-annotated caller would report it transitively — modelled here by
// an unannotated allocating drain.
func (c *fakeChip) unannotatedDrain(bank int) {
	c.bank[bank].parity = make([]byte, len(c.code))
}

//chipkill:noalloc
func (c *fakeChip) badCloseRow(bank int) {
	c.unannotatedDrain(bank) // want `calls noallocstub/a.fakeChip.unannotatedDrain, which allocates`
	c.open[bank] = -1
}
