// KVStore: a small persistent key-value store running end-to-end on the
// simulated chipkill-protected memory.
//
// The store keeps a fixed-size hash table of 64-byte slots directly in
// persistent-memory blocks, writes through the controller's XOR write
// path (with a small write-combining cache acting as the LLC's OMV
// provider), and survives a crash + power outage + chip failure without
// losing a single committed record.
//
// Run with: go run ./examples/kvstore
package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"

	"chipkillpm/internal/core"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/rank"
)

// slot layout within one 64B block:
//
//	[0:2]  key length   (0 = empty)
//	[2:4]  value length
//	[4:4+k]    key bytes
//	[4+k:...]  value bytes
const maxPayload = 60

// Store is the persistent hash table.
type Store struct {
	ctrl   *core.Controller
	slots  int64
	omv    *omvCache
	buf    []byte // read buffer, reused by every probe
	Puts   int64
	Probes int64
}

// omvCache is a tiny write-back view of recently accessed blocks that
// doubles as the controller's OMVProvider — the role the LLC's SAM/OMV
// bits play in hardware.
type omvCache struct {
	values map[int64][]byte
}

func (c *omvCache) OMV(block int64) ([]byte, bool) {
	v, ok := c.values[block]
	return v, ok
}

func (c *omvCache) note(block int64, data []byte) {
	if len(c.values) > 4096 {
		for k := range c.values {
			delete(c.values, k)
			break
		}
	}
	c.values[block] = append([]byte(nil), data...)
}

// NewStore builds the store on a fresh rank.
func NewStore(banks, rows int, seed int64) (*Store, error) {
	r, err := rank.New(rank.PaperConfig(banks, rows, 1024, seed))
	if err != nil {
		return nil, err
	}
	omv := &omvCache{values: map[int64][]byte{}}
	ctrl, err := core.NewController(r, core.DefaultConfig(), omv)
	if err != nil {
		return nil, err
	}
	return &Store{ctrl: ctrl, slots: r.Blocks(), omv: omv, buf: make([]byte, 64)}, nil
}

func (s *Store) hash(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() % uint64(s.slots))
}

// Put stores key=value, linear-probing over slots.
func (s *Store) Put(key, value string) error {
	if len(key)+len(value)+4 > 64 {
		return fmt.Errorf("kv: record too large")
	}
	s.Puts++
	for probe := int64(0); probe < s.slots; probe++ {
		b := (s.hash(key) + probe) % s.slots
		s.Probes++
		data := s.buf
		if err := s.ctrl.ReadBlockInto(b, data); err != nil {
			return err
		}
		k, _ := decode(data)
		if k != "" && k != key {
			continue // occupied by another key
		}
		fresh := make([]byte, 64)
		binary.LittleEndian.PutUint16(fresh[0:2], uint16(len(key)))
		binary.LittleEndian.PutUint16(fresh[2:4], uint16(len(value)))
		copy(fresh[4:], key)
		copy(fresh[4+len(key):], value)
		s.omv.note(b, data) // the "LLC" holds the old memory value
		if err := s.ctrl.WriteBlock(b, fresh); err != nil {
			return err
		}
		s.omv.note(b, fresh)
		return nil
	}
	return fmt.Errorf("kv: store full")
}

// Get fetches a key's value.
func (s *Store) Get(key string) (string, bool, error) {
	for probe := int64(0); probe < s.slots; probe++ {
		b := (s.hash(key) + probe) % s.slots
		data := s.buf
		if err := s.ctrl.ReadBlockInto(b, data); err != nil {
			return "", false, err
		}
		k, v := decode(data)
		if k == "" {
			return "", false, nil
		}
		if k == key {
			return v, true, nil
		}
	}
	return "", false, nil
}

func decode(data []byte) (key, value string) {
	kl := int(binary.LittleEndian.Uint16(data[0:2]))
	vl := int(binary.LittleEndian.Uint16(data[2:4]))
	if kl == 0 || kl+vl > maxPayload {
		return "", ""
	}
	return string(data[4 : 4+kl]), string(data[4+kl : 4+kl+vl])
}

// main drives the store from a single goroutine, so the simulated
// outage (retention drift, chip kill, boot scrub) sees a quiescent rank.
//
//chipkill:rankwide
func main() {
	log.SetFlags(0)
	store, err := NewStore(2, 32, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kvstore: %d slots on a chipkill-protected PM rank\n\n", store.slots)

	// Load a few thousand records.
	rng := rand.New(rand.NewSource(5))
	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("user:%05d", rng.Intn(10000))
		val := fmt.Sprintf("balance=%d", rng.Intn(1_000_000))
		if err := store.Put(key, val); err != nil {
			log.Fatal(err)
		}
		ref[key] = val
	}
	fmt.Printf("loaded %d unique keys (%d puts, %.2f probes/put)\n",
		len(ref), store.Puts, float64(store.Probes)/float64(store.Puts))

	// Crash: power is lost for a month; a chip dies on the way down.
	rank := store.ctrl.Rank()
	rber := nvram.ReRAM.RBER(nvram.Month)
	flips := rank.InjectRetentionErrors(rber)
	rank.FailChip(2)
	fmt.Printf("\nCRASH: one month dark (ReRAM RBER %.1e, %d bits flipped), chip 2 dead\n", rber, flips)

	// Reboot: scrub, then verify every record.
	rep := store.ctrl.BootScrub()
	fmt.Printf("reboot: %s\n", rep)
	if rep.Unrecoverable {
		log.Fatal("unrecoverable")
	}

	for key, want := range ref {
		got, ok, err := store.Get(key)
		if err != nil {
			log.Fatalf("get %q: %v", key, err)
		}
		if !ok || got != want {
			log.Fatalf("get %q: got %q ok=%v, want %q", key, got, ok, want)
		}
	}
	fmt.Printf("verified: all %d records intact after crash + chip failure\n", len(ref))
	st := store.ctrl.Stats()
	fmt.Printf("controller: %d reads (%d RS-corrected, %d VLEW fallbacks), %d writes (%d OMV hits)\n",
		st.Reads, st.ReadsRSCorrected, st.ReadsVLEWFallback, st.Writes, st.OMVHits)
}
