package main

import (
	"errors"
	"sync"
	"testing"
)

// memStore is an honest in-memory store; lyingStore wraps it with the
// three faults the checker exists to catch.
type memStore struct {
	mu     sync.RWMutex // an honest store never returns a torn block
	blocks [][]byte
}

func newMemStore(n int64) *memStore {
	s := &memStore{blocks: make([][]byte, n)}
	for i := range s.blocks {
		s.blocks[i] = make([]byte, blockBytes)
	}
	return s
}

func (s *memStore) Blocks() int64 { return int64(len(s.blocks)) }
func (s *memStore) ReadBlockInto(b int64, dst []byte) error {
	s.mu.RLock()
	copy(dst, s.blocks[b])
	s.mu.RUnlock()
	return nil
}
func (s *memStore) WriteBlock(b int64, data []byte) error {
	s.mu.Lock()
	copy(s.blocks[b], data)
	s.mu.Unlock()
	return nil
}
func (s *memStore) WriteBlockInitial(b int64, data []byte) error { return s.WriteBlock(b, data) }

type lyingStore struct {
	*memStore
	corrupt int64    // reads of this block come back with one byte flipped
	stale   int64    // reads of this block return the version before the last
	drop    int64    // writes to this block are acknowledged and discarded
	failing int64    // reads of this block return an error
	old     [][]byte // previous contents, written only by a block's owner
}

func newLyingStore(n int64) *lyingStore {
	return &lyingStore{memStore: newMemStore(n), corrupt: -1, stale: -1, drop: -1, failing: -1, old: make([][]byte, n)}
}

func (s *lyingStore) WriteBlock(b int64, data []byte) error {
	if b == s.drop {
		return nil
	}
	s.mu.RLock()
	s.old[b] = append([]byte(nil), s.blocks[b]...)
	s.mu.RUnlock()
	return s.memStore.WriteBlock(b, data)
}

func (s *lyingStore) ReadBlockInto(b int64, dst []byte) error {
	switch b {
	case s.failing:
		return errors.New("injected read error")
	case s.stale:
		copy(dst, s.old[b])
		return nil
	}
	if err := s.memStore.ReadBlockInto(b, dst); err != nil {
		return err
	}
	if b == s.corrupt {
		dst[17] ^= 0x04
	}
	return nil
}

func TestBlockFormatCertifiesItself(t *testing.T) {
	buf := make([]byte, blockBytes)
	fillBlock(buf, 4242, 7)
	if v, ok := checkBlock(buf, 4242); !ok || v != 7 {
		t.Fatalf("fresh block rejected: version %d ok=%v", v, ok)
	}
	if _, ok := checkBlock(buf, 4243); ok {
		t.Fatal("block accepted under another block's id")
	}
	for i := range buf {
		buf[i] ^= 1
		if _, ok := checkBlock(buf, 4242); ok {
			t.Fatalf("flipping byte %d went unnoticed", i)
		}
		buf[i] ^= 1
	}
}

// rewrite gives every block a second version through the store, as its
// owner would.
func rewrite(t *testing.T, st store, sh *shadow) {
	t.Helper()
	buf := make([]byte, blockBytes)
	for b := int64(0); b < st.Blocks(); b++ {
		if err := sh.put(st.WriteBlock, b, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// The checker is itself checked: each lie, alone, must be counted and
// must turn the exit status non-zero; an honest store must pass.
func TestSweepCatchesEveryLie(t *testing.T) {
	const n = 512
	cases := []struct {
		name string
		lie  func(*lyingStore)
		want int64
	}{
		{"honest", func(*lyingStore) {}, 0},
		{"one corrupted byte", func(s *lyingStore) { s.corrupt = 100 }, 1},
		{"one stale version", func(s *lyingStore) { s.stale = 200 }, 1},
		{"one dropped acknowledged write", func(s *lyingStore) { s.drop = 300 }, 1},
		{"one read error", func(s *lyingStore) { s.failing = 400 }, 1},
		{"all of them", func(s *lyingStore) { s.corrupt, s.stale, s.drop, s.failing = 100, 200, 300, 400 }, 4},
	}
	for _, tc := range cases {
		st := newLyingStore(n)
		sh := newShadow(n, 32, 2, 9)
		if err := sh.fill(st); err != nil {
			t.Fatal(err)
		}
		tc.lie(st)
		rewrite(t, st, sh)
		got := sh.sweep(st, make([]byte, blockBytes), nil)
		if got.attempted != n || got.failed != tc.want {
			t.Errorf("%s: sweep counted %d failures in %d reads, want %d in %d", tc.name, got.failed, got.attempted, tc.want, n)
		}
		if want := float64(tc.want) / n; got.failedOpsRatio() != want {
			t.Errorf("%s: failed_ops_ratio %g, want %g", tc.name, got.failedOpsRatio(), want)
		}
		if status := got.exitStatus(); (status != 0) != (tc.want != 0) {
			t.Errorf("%s: exit status %d with %d failures", tc.name, status, tc.want)
		}
	}
	if (tally{}).exitStatus() == 0 {
		t.Error("a run that attempted nothing must not exit 0")
	}
}

// A sampled read is checked against the version window the oracle allows.
func TestVerifyReadBoundsTheVersion(t *testing.T) {
	sh := newShadow(8, 4, 1, 3)
	st := newMemStore(8)
	if err := sh.fill(st); err != nil {
		t.Fatal(err)
	}
	rewrite(t, st, sh) // every block is now at version 2
	buf := make([]byte, blockBytes)
	for v, want := range map[uint32]bool{1: false, 2: true, 3: true, 4: false} {
		fillBlock(buf, 5, v)
		if got := sh.verifyRead(5, buf, sh.floor(5)); got != want {
			t.Errorf("version %d with version 2 acknowledged: accepted=%v, want %v", v, got, want)
		}
	}
}

// The same lies must surface through a whole closed-loop run, and an
// honest store must come out of one clean.
func TestRunDemandCountsLies(t *testing.T) {
	for _, lie := range []bool{false, true} {
		st := newLyingStore(2048)
		sh := newShadow(2048, 32, 2, 11)
		tg := &target{st: st, sh: sh}
		if err := sh.fill(st); err != nil {
			t.Fatal(err)
		}
		if lie {
			st.corrupt, st.stale, st.drop = 10, 20, 30
		}
		streams, err := mixStreams(11, sh, 2048, 300)
		if err != nil {
			t.Fatal(err)
		}
		p := options{seed: 11, quick: true}.plan()
		p.clients = sh.clients
		res, err := runDemand(p, tg, streams)
		if err != nil {
			t.Fatal(err)
		}
		if lie && (res.tally.failed < 3 || res.tally.exitStatus() == 0) {
			t.Errorf("lying store: %d failures, exit status %d", res.tally.failed, res.tally.exitStatus())
		}
		if !lie && (res.tally.failed != 0 || res.tally.exitStatus() != 0 || res.tally.attempted == 0) {
			t.Errorf("honest store: %+v", res.tally)
		}
	}
}
