package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"
)

// Block contents are self-certifying: an 8-byte header (block id, version)
// followed by 56 bytes of splitmix64 output seeded by both. A reader can
// therefore tell a torn, misdirected or corrupted block from a good one
// without knowing which version to expect, and the shadow below pins down
// which versions are acceptable.
const blockBytes = 64

// splitmix64 is the fixed-increment generator of Steele, Lea and Flood;
// it is also the seed-mixing step of every stream generator here.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillBlock writes the contents of (block, version) into dst.
func fillBlock(dst []byte, block int64, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(block))
	binary.LittleEndian.PutUint32(dst[4:], version)
	x := uint64(block)<<32 | uint64(version)
	for off := 8; off < blockBytes; off += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
}

// checkBlock reports the version a returned buffer certifies for block,
// and whether header and body agree with it.
func checkBlock(buf []byte, block int64) (version uint32, ok bool) {
	if len(buf) != blockBytes || binary.LittleEndian.Uint32(buf[0:]) != uint32(block) {
		return 0, false
	}
	version = binary.LittleEndian.Uint32(buf[4:])
	x := uint64(block)<<32 | uint64(version)
	for off := 8; off < blockBytes; off += 8 {
		x = splitmix64(x)
		if binary.LittleEndian.Uint64(buf[off:]) != x {
			return version, false
		}
	}
	return version, true
}

// store is the demand surface every workload drives; engine.Engine and
// fleet.Fleet both provide it, and the checker's own test substitutes a
// store that lies.
type store interface {
	Blocks() int64
	ReadBlockInto(block int64, dst []byte) error
	WriteBlock(block int64, data []byte) error
	WriteBlockInitial(block int64, data []byte) error
}

// shadow is the oracle: the last acknowledged version and contents of
// every block. Each block has exactly one writing client (ownership is by
// group of groupBlocks consecutive blocks), so only the version needs to
// be atomic — other clients read it to bound what a read may return.
//
// It doubles as the core.OMVProvider of engine workloads: the owner's
// copy is the real old value the LLC would hold, with 1.4 % of lookups
// forced to miss (the paper's 98.6 % LLC hit rate).
type shadow struct {
	ver         []atomic.Uint32
	data        []byte
	groupBlocks int64
	clients     int
	salt        uint64
}

func newShadow(blocks, groupBlocks int64, clients int, seed uint64) *shadow {
	return &shadow{
		ver:         make([]atomic.Uint32, blocks),
		data:        make([]byte, blocks*blockBytes),
		groupBlocks: groupBlocks,
		clients:     clients,
		salt:        splitmix64(seed ^ 0x6f776e6572), // "owner"
	}
}

// owner returns the client that writes block.
func (s *shadow) owner(block int64) int {
	return int(splitmix64(uint64(block/s.groupBlocks)^s.salt) % uint64(s.clients))
}

func (s *shadow) contents(block int64) []byte {
	return s.data[block*blockBytes : (block+1)*blockBytes]
}

// omvMissPerMille is the forced OMV miss rate, in lookups per thousand.
const omvMissPerMille = 14

// OMV implements core.OMVProvider. It is only ever called from inside the
// owner's own WriteBlock, so reading the owner's copy is race-free.
func (s *shadow) OMV(block int64) ([]byte, bool) {
	if splitmix64(uint64(block)<<32|uint64(s.ver[block].Load()))%1000 < omvMissPerMille {
		return nil, false
	}
	return s.contents(block), true
}

// fill populates the store with version 1 of every block.
func (s *shadow) fill(st store) error {
	for b := int64(0); b < st.Blocks(); b++ {
		buf := s.contents(b)
		fillBlock(buf, b, 1)
		if err := st.WriteBlockInitial(b, buf); err != nil {
			return err
		}
		s.ver[b].Store(1)
	}
	return nil
}

// next stages the owner's next version of block into dst.
func (s *shadow) next(dst []byte, block int64) uint32 {
	v := s.ver[block].Load() + 1
	fillBlock(dst, block, v)
	return v
}

// ack records that the store acknowledged version v of block.
func (s *shadow) ack(block int64, v uint32, data []byte) {
	copy(s.contents(block), data)
	s.ver[block].Store(v)
}

// put writes the owner's next version of block through write and, once it
// is acknowledged, records it. buf is scratch for the new contents.
func (s *shadow) put(write func(block int64, data []byte) error, block int64, buf []byte) error {
	v := s.next(buf, block)
	if err := write(block, buf); err != nil {
		return err
	}
	s.ack(block, v, buf)
	return nil
}

// floor is read before a verified read is issued: the read must not
// return anything older.
func (s *shadow) floor(block int64) uint32 { return s.ver[block].Load() }

// verifyRead checks a returned buffer against the oracle: it must certify
// itself, be no older than the version acknowledged before the read was
// issued, and no newer than the one write that may be in flight.
func (s *shadow) verifyRead(block int64, buf []byte, floor uint32) bool {
	v, ok := checkBlock(buf, block)
	return ok && v >= floor && v <= s.ver[block].Load()+1
}

// tally counts operations attempted and operations that failed or
// returned something the oracle rejects.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedOpsRatio is failed over attempted.
func (t tally) failedOpsRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// exitStatus is the process exit code a run with this tally earns.
func (t tally) exitStatus() int {
	if t.failed > 0 || t.attempted == 0 {
		return 1
	}
	return 0
}

// sweep reads every block through the store once all writers have
// stopped and requires exactly the last acknowledged version of each: a
// dropped acknowledged write shows up here even if no sampled read ever
// touched the block. With log non-nil, every sweepSampleStride-th read is
// clocked into it, in chunks like any other phase.
func (s *shadow) sweep(st store, buf []byte, log *recorder) tally {
	var t tally
	chunkStart, chunkFrom := time.Now(), int64(0)
	for b := int64(0); b < st.Blocks(); b++ {
		t.attempted++
		var err error
		if log != nil && b%sweepSampleStride == 0 {
			t0 := time.Now()
			err = st.ReadBlockInto(b, buf)
			now := time.Now()
			log.sample(int64(now.Sub(t0)), false)
			if log.filled() {
				log.closeChunk(b+1-chunkFrom, int64(now.Sub(chunkStart)))
				chunkStart, chunkFrom = now, b+1
			}
		} else {
			err = st.ReadBlockInto(b, buf)
		}
		if err != nil {
			t.failed++
			continue
		}
		if v, ok := checkBlock(buf, b); !ok || v != s.ver[b].Load() {
			t.failed++
		}
	}
	return t
}
