package rank

import (
	"bytes"
	"testing"
)

// TestReadBlockRawIntoReusedBuffers reads every block of the rank through
// one reused pair of buffers and checks each against what was written.
func TestReadBlockRawIntoReusedBuffers(t *testing.T) {
	r := testRank(t)
	data := make([]byte, r.Config().BlockBytes())
	check := make([]byte, r.Config().ChipAccessBytes)
	block := func(b int64) (wd, wc []byte) {
		wd = make([]byte, r.Config().BlockBytes())
		wc = make([]byte, r.Config().ChipAccessBytes)
		for i := range wd {
			wd[i] = byte(b) ^ byte(i*7)
		}
		for i := range wc {
			wc[i] = byte(b) + byte(i)
		}
		return wd, wc
	}
	for b := int64(0); b < r.Blocks(); b++ {
		wd, wc := block(b)
		r.WriteBlockRaw(b, wd, wc)
	}
	for b := int64(0); b < r.Blocks(); b++ {
		wantData, wantCheck := block(b)
		r.ReadBlockRawInto(b, data, check)
		if !bytes.Equal(data, wantData) || !bytes.Equal(check, wantCheck) {
			t.Fatalf("block %d: read back differs from the write", b)
		}
	}
}

// TestReadBlockRawIntoAllocFree pins the demand read primitive at zero
// allocations per call — the foundation of the engine's zero-alloc read
// path.
func TestReadBlockRawIntoAllocFree(t *testing.T) {
	r := testRank(t)
	data := make([]byte, r.Config().BlockBytes())
	check := make([]byte, r.Config().ChipAccessBytes)
	blocks := r.Blocks()
	var b int64
	allocs := testing.AllocsPerRun(200, func() {
		r.ReadBlockRawInto(b, data, check)
		b = (b + 1) % blocks
	})
	if allocs != 0 {
		t.Fatalf("ReadBlockRawInto allocates %.1f objects per call, want 0", allocs)
	}
}

func TestReadBlockRawIntoSizeMismatchPanics(t *testing.T) {
	r := testRank(t)
	defer func() {
		if recover() == nil {
			t.Fatal("short data buffer should panic")
		}
	}()
	r.ReadBlockRawInto(0, make([]byte, 1), make([]byte, r.Config().ChipAccessBytes))
}
