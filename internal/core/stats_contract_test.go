package core

import (
	"sync"
	"testing"
)

// TestStatsConcurrentWithScrub pins the documented stats contract: Stats
// and ResetStats may run concurrently with BootScrub and PatrolScrub (a
// boot-progress monitor), because the scrubs publish their counters in
// one locked batch. Run under -race (make race covers this package) to
// catch any regression to unlocked publication.
func TestStatsConcurrentWithScrub(t *testing.T) {
	c, err := NewController(smallRank(t, 31), Config{Threshold: 2, ScrubWorkers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillRandom(t, c, 32)
	c.Rank().InjectRetentionErrors(2e-4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = c.Stats()
				if i%64 == 63 {
					c.ResetStats()
				}
			}
		}
	}()

	rep := c.BootScrub()
	if rep.Unrecoverable {
		t.Fatalf("scrub unrecoverable: %v", rep)
	}
	pos := int64(0)
	for i := 0; i < 8; i++ {
		pos, _ = c.PatrolScrub(pos, 64)
	}
	close(stop)
	wg.Wait()

	// The rank must still be intact after the concurrent monitoring.
	c.ResetStats()
	for b := int64(0); b < c.Rank().Blocks(); b += 97 {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if string(got) != string(ref[b]) {
			t.Fatalf("block %d corrupted after scrub", b)
		}
	}
}
