package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// A stream is one client's pregenerated op sequence: ring entries are
// block ids, with writeBit set on writes. Rings are replayed cyclically,
// which keeps the generator out of the measured loop. Every ring comes
// from the run's seed alone; the stack under test only ever sees the
// generated block ids and contents.
type stream struct {
	ring []int32
}

// writeBit marks a ring entry as a write; ring entries are non-negative
// block ids otherwise.
const writeBit = int32(-1 << 31)

func ringEntry(block int64, write bool) int32 {
	e := int32(block)
	if write {
		e |= writeBit
	}
	return e
}

func ringBlock(e int32) int64 { return int64(e &^ writeBit) }

// ringLen is prime so that no sampling or tick period can alias with the
// ring's lap length.
const ringLen = 16381

// zipfS is the block-popularity skew of fleet_mix.
const zipfS = 1.1

func streamRNG(seed uint64, tag string, client int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return rand.New(rand.NewSource(int64(splitmix64(seed^h.Sum64()) + uint64(client)*0x9e3779b97f4a7c15)))
}

// ownedGroups lists the ownership groups (rows or bands) a client writes.
func ownedGroups(sh *shadow, blocks int64, client int) []int64 {
	var out []int64
	for g := int64(0); g < blocks/sh.groupBlocks; g++ {
		if sh.owner(g*sh.groupBlocks) == client {
			out = append(out, g)
		}
	}
	return out
}

func randomOwned(rng *rand.Rand, sh *shadow, owned []int64) int64 {
	return owned[rng.Intn(len(owned))]*sh.groupBlocks + rng.Int63n(sh.groupBlocks)
}

// readStreams: uniformly random single-block reads over the whole space.
func readStreams(seed uint64, sh *shadow, blocks int64) ([]stream, error) {
	out := make([]stream, sh.clients)
	for c := range out {
		rng := streamRNG(seed, "read", c)
		ring := make([]int32, ringLen)
		for i := range ring {
			ring[i] = ringEntry(rng.Int63n(blocks), false)
		}
		out[c] = stream{ring: ring}
	}
	return out, nil
}

// randomWriteStreams: every write goes to a random block of a random owned
// row, so consecutive writes almost never share a row.
func randomWriteStreams(seed uint64, sh *shadow, blocks int64) ([]stream, error) {
	out := make([]stream, sh.clients)
	for c := range out {
		rng := streamRNG(seed, "write_random", c)
		owned := ownedGroups(sh, blocks, c)
		if len(owned) == 0 {
			return nil, fmt.Errorf("client %d owns no rows", c)
		}
		ring := make([]int32, ringLen)
		for i := range ring {
			ring[i] = ringEntry(randomOwned(rng, sh, owned), true)
		}
		out[c] = stream{ring: ring}
	}
	return out, nil
}

// rowLocalWriteStreams: each client walks its owned rows in a seeded
// order, writing every block of a row in sequence before moving on.
func rowLocalWriteStreams(seed uint64, sh *shadow, blocks int64) ([]stream, error) {
	out := make([]stream, sh.clients)
	for c := range out {
		rng := streamRNG(seed, "write_rowlocal", c)
		owned := ownedGroups(sh, blocks, c)
		if len(owned) == 0 {
			return nil, fmt.Errorf("client %d owns no rows", c)
		}
		rng.Shuffle(len(owned), func(i, j int) { owned[i], owned[j] = owned[j], owned[i] })
		ring := make([]int32, 0, int64(len(owned))*sh.groupBlocks)
		for _, g := range owned {
			for i := int64(0); i < sh.groupBlocks; i++ {
				ring = append(ring, ringEntry(g*sh.groupBlocks+i, true))
			}
		}
		out[c] = stream{ring: ring}
	}
	return out, nil
}

// mixStreams: Zipf-popular blocks, writePerMille of the ops writes. A
// seeded permutation of the groups decides which of them are hot, and
// popularity ranks stay contiguous inside a group, so whole bands are hot
// or cold — which is what the fleet's replication policy keys on. A
// client's writes are drawn from the same distribution restricted to the
// groups it owns.
func mixStreams(seed uint64, sh *shadow, blocks int64, writePerMille int) ([]stream, error) {
	groups := blocks / sh.groupBlocks
	perm := streamRNG(seed, "mix_perm", 0).Perm(int(groups))
	out := make([]stream, sh.clients)
	for c := range out {
		if len(ownedGroups(sh, blocks, c)) == 0 {
			return nil, fmt.Errorf("client %d owns no bands", c)
		}
		rng := streamRNG(seed, "fleet_mix", c)
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(blocks-1))
		draw := func() int64 {
			r := int64(zipf.Uint64())
			return int64(perm[r/sh.groupBlocks])*sh.groupBlocks + r%sh.groupBlocks
		}
		ring := make([]int32, ringLen)
		for i := range ring {
			write := rng.Intn(1000) < writePerMille
			b := draw()
			for write && sh.owner(b) != c {
				b = draw()
			}
			ring[i] = ringEntry(b, write)
		}
		out[c] = stream{ring: ring}
	}
	return out, nil
}

// digest fingerprints everything the seed decided for a run: who owns
// what, every ring, and the seeds handed to the fault injectors.
func digest(sh *shadow, streams []stream, faultSeeds ...int64) string {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(sh.salt)
	put(uint64(sh.clients))
	for _, s := range streams {
		put(uint64(len(s.ring)))
		for _, e := range s.ring {
			put(uint64(uint32(e)))
		}
	}
	for _, s := range faultSeeds {
		put(uint64(s))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
