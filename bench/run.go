package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/fleet"
	"chipkillpm/internal/nvram"
)

// plan is the load model of one run: a closed loop of `clients`
// goroutines (a memory controller's caller waits for its block), a
// warm-up, then the measurement window.
type plan struct {
	seed    uint64
	clients int
	warmup  time.Duration
	measure time.Duration
	setups  int // set-up repetitions behind setup_s
}

// Sampling: a client times one op in sampleGapMean on average, with the
// gap drawn uniformly from [sampleGapMean/2, 3*sampleGapMean/2) so the
// sampled positions cannot alias with a stream's row or ring structure.
// A write counts writeSampleWeight ops towards the gap: writes are some
// thirty times slower than reads, so they are sampled that much more
// densely at the same clock overhead, and a chunk of chunkSamples samples
// spans about the same time on every workload. Every sampled write is
// followed by a verified read-back.
//
// A stream with only one kind of op is followed by an epilogue of the
// other kind, so that every workload reports both latencies: random
// single-block ops over the whole store from one client, for
// epilogueShare of the measurement time, on the state the stream left
// behind. Mixing the other kind into the stream instead was measured to
// cost a read-only client 5 % of its time at one write per 4096 reads,
// and to park the other client on the shard mutex, which a control
// workload cannot afford. tickPeriod is how often client 0 of a fleet
// workload runs the supervision tick inline.
const (
	sampleGapMean     = 64
	writeSampleWeight = 32
	tickPeriod        = 4096
	epilogueShare     = 0.2
)

type client struct {
	id     int
	stream stream
	rng    uint64
	rec    *recorder
	tally  tally
	_      [64]byte // keep neighbouring clients' hot fields apart
}

func (c *client) nextGap() int {
	c.rng = splitmix64(c.rng)
	return sampleGapMean/2 + int(c.rng%sampleGapMean)
}

// counters are the public statistics snapshots of the layers under a
// run, taken as deltas over the whole closed loop (warm-up included).
type counters struct {
	core   core.Stats
	seq    engine.SeqStats
	chips  nvram.Stats
	fleet  fleet.Stats
	allocs uint64
}

// result is what one untraced run of one workload produced.
type result struct {
	digest  string
	tally   tally
	metrics map[string]float64
	// tailUsed records the quantile actually reported under each p99
	// metric name when the sample could not support 0.99.
	tailUsed map[string]float64
	samples  uint64
	// undisturbed is the share of the run's chunks the host probe passed.
	undisturbed float64
	counters    counters
}

// timeSetups runs build `n` times, keeps the last target and returns the
// build time of the fastest builds: one build is too short to time
// steadily, the first pays the process's lazy table construction, and
// builds do identical work, so the quickest are the ones the host left
// alone (see fastest).
func timeSetups(n int, build func() (*target, error)) (*target, float64, error) {
	var tg *target
	log := newRecorder(n)
	for i := 0; i < n; i++ {
		tg = nil
		start := time.Now()
		t, err := build()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		log.closeChunk(1, int64(time.Since(start)))
		tg = t
	}
	return tg, summarise([]*recorder{log}, fastest).nsPerUnit / 1e9, nil
}

// heapInuseMiB reads HeapInuse after two collections: the second one
// finishes sweeping what the first freed, so that garbage of an earlier
// workload in the same process does not count against this one.
func heapInuseMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (tg *target) snapshot() counters {
	var c counters
	if tg.eng != nil {
		c.core = tg.eng.Stats()
		c.seq = tg.eng.SeqStats()
		c.chips = tg.eng.Rank().Stats()
	}
	if tg.flt != nil {
		c.fleet = tg.flt.Stats()
		c.core = c.fleet.Demand
		for i := 0; i < tg.flt.NumRanks(); i++ {
			s := tg.flt.Engine(i).SeqStats()
			c.seq.FastReads += s.FastReads
			c.seq.Retries += s.Retries
			c.seq.LockFallbacks += s.LockFallbacks
			cs := tg.flt.Rank(i).Stats()
			c.chips.DataWrites += cs.DataWrites
			c.chips.VLEWCodeWrites += cs.VLEWCodeWrites
			c.chips.RowCloses += cs.RowCloses
		}
	}
	c.allocs = mallocs()
	return c
}

// sub turns two snapshots into the activity between them. Only the
// fields the per-layer metrics read are differenced; the fleet's gauges
// (ActiveReplicas) keep their final value.
func (c counters) sub(b counters) counters {
	d := c
	d.core.Reads -= b.core.Reads
	d.core.Writes -= b.core.Writes
	d.core.ReadsRSCorrected -= b.core.ReadsRSCorrected
	d.core.ReadsVLEWFallback -= b.core.ReadsVLEWFallback
	d.core.Uncorrectable -= b.core.Uncorrectable
	d.core.OMVHits -= b.core.OMVHits
	d.core.OMVMisses -= b.core.OMVMisses
	d.core.BlockFetches -= b.core.BlockFetches
	d.core.ScrubCorrections -= b.core.ScrubCorrections
	d.seq.FastReads -= b.seq.FastReads
	d.seq.Retries -= b.seq.Retries
	d.seq.LockFallbacks -= b.seq.LockFallbacks
	d.chips.DataWrites -= b.chips.DataWrites
	d.chips.VLEWCodeWrites -= b.chips.VLEWCodeWrites
	d.chips.RowCloses -= b.chips.RowCloses
	d.fleet.ReadRepairs -= b.fleet.ReadRepairs
	d.fleet.DivergenceFixes -= b.fleet.DivergenceFixes
	d.fleet.ContainedDUEs -= b.fleet.ContainedDUEs
	d.allocs -= b.allocs
	return d
}

// drive runs one closed loop over the target, one client per stream, and
// returns the clients' logs and what they counted.
func drive(seed uint64, tg *target, streams []stream, warmup, measure time.Duration) ([]*recorder, tally) {
	clients := make([]*client, len(streams))
	recs := make([]*recorder, len(streams))
	for i := range clients {
		// Sized for 20 M sampled-weight ops per second and client, twice
		// what the fastest workload reaches, so the log never grows
		// mid-run.
		recs[i] = newRecorder(int(measure.Seconds()*20e6) / (sampleGapMean * chunkSamples))
		clients[i] = &client{
			id: i, stream: streams[i], rec: recs[i],
			rng: splitmix64(seed ^ uint64(i+1)*0xa0761d6478bd642f),
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	base := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			c.loop(tg, base, warmup, measure)
		}(c)
	}
	close(start)
	wg.Wait()
	var t tally
	for _, c := range clients {
		t.add(c.tally)
	}
	return recs, t
}

// runDemand drives a populated target with one stream per client and
// reports the end-to-end metrics of the closed loop.
func runDemand(p plan, tg *target, streams []stream) (*result, error) {
	if len(streams) != p.clients {
		return nil, fmt.Errorf("%d streams for %d clients", len(streams), p.clients)
	}
	res := &result{metrics: map[string]float64{}, tailUsed: map[string]float64{}}
	epilogue := complement(p.seed, streams, tg.st.Blocks())
	measure := p.measure
	if epilogue != nil {
		measure = time.Duration(float64(p.measure) * (1 - epilogueShare))
	}
	before := tg.snapshot()
	work, t := drive(p.seed, tg, streams, p.warmup, measure)
	res.tally.add(t)
	res.counters = tg.snapshot().sub(before)
	lat := work
	if epilogue != nil {
		// One client may now write any block: the owners have stopped.
		extra, t := drive(p.seed+1, tg, epilogue, p.warmup/5, p.measure-measure)
		res.tally.add(t)
		lat = append(append([]*recorder(nil), work...), extra...)
	}
	if err := res.reduce(work, undisturbed, lat); err != nil {
		return nil, err
	}
	res.tally.add(tg.sh.sweep(tg.st, make([]byte, blockBytes), nil))
	return res, nil
}

// complement returns the one-client epilogue stream for streams that only
// read or only write, and nil for mixed streams.
func complement(seed uint64, streams []stream, blocks int64) []stream {
	var reads, writes bool
	for _, s := range streams {
		for _, e := range s.ring {
			if e < 0 {
				writes = true
			} else {
				reads = true
			}
		}
	}
	if reads == writes {
		return nil
	}
	rng := streamRNG(seed, "epilogue", 0)
	ring := make([]int32, ringLen)
	for i := range ring {
		ring[i] = ringEntry(rng.Int63n(blocks), reads)
	}
	return []stream{{ring: ring}}
}

// reduce turns the logs into ops_per_s (from the chunks of work that
// sel selects) and the latency metrics (from the undisturbed chunks of
// lat).
func (r *result) reduce(work []*recorder, sel func(*recorder) []int, lat []*recorder) error {
	w := summarise(work, sel)
	if w.kept == 0 {
		return fmt.Errorf("no chunk completed inside the measurement window")
	}
	s := summarise(lat, undisturbed)
	r.undisturbed = float64(w.kept) / float64(w.chunks)
	r.metrics["ops_per_s"] = w.rate
	for _, m := range []struct {
		name string
		h    *hist
		p    float64
	}{
		{"read_p50_ns", &s.reads, 0.50}, {"read_p99_ns", &s.reads, 0.99},
		{"write_p50_ns", &s.writes, 0.50}, {"write_p99_ns", &s.writes, 0.99},
	} {
		v, used := m.h.percentile(m.p)
		r.metrics[m.name] = v
		if used != m.p {
			r.tailUsed[m.name] = used
		}
	}
	r.samples = s.reads.count + s.writes.count
	return nil
}

// loop is one client's closed loop. The clock is read only around
// sampled ops; chunk boundaries and supervision ticks are handled at
// those sample points so the unsampled path is just ring fetch, op, error
// check.
func (c *client) loop(tg *target, base time.Time, warmup, measure time.Duration) {
	st, sh, rec := tg.st, tg.sh, c.rec
	ring := c.stream.ring
	rbuf := make([]byte, blockBytes)
	wbuf := make([]byte, blockBytes)
	measureFrom := int64(warmup)
	end := measureFrom + int64(measure)
	measuring := false
	pos := 0
	var ops, lastTick, chunkOps, chunkAt int64
	untilSample := c.nextGap()
	for {
		e := ring[pos]
		pos++
		if pos == len(ring) {
			pos = 0
		}
		block := ringBlock(e)
		if e < 0 {
			untilSample -= writeSampleWeight
		} else {
			untilSample--
		}
		if untilSample > 0 {
			ops++
			var err error
			if e < 0 {
				err = sh.put(st.WriteBlock, block, wbuf)
			} else {
				err = st.ReadBlockInto(block, rbuf)
			}
			if err != nil {
				c.tally.failed++
			}
			continue
		}

		// Sampled op: timed, and verified after the clock stops.
		var now int64
		if e < 0 {
			now = c.timedWrite(tg, block, wbuf, rbuf, base, measuring)
			ops++ // the read-back is verification, not part of the stream
		} else {
			floor := sh.floor(block)
			t0 := int64(time.Since(base))
			err := st.ReadBlockInto(block, rbuf)
			now = int64(time.Since(base))
			if measuring {
				rec.sample(now-t0, false)
			}
			if err != nil || !sh.verifyRead(block, rbuf, floor) {
				c.tally.failed++
			}
			ops++
		}
		untilSample = c.nextGap()
		if tg.flt != nil && c.id == 0 && ops-lastTick >= tickPeriod {
			lastTick = ops
			c.tally.attempted++
			if err := tg.flt.Tick(); err != nil {
				c.tally.failed++
			}
			now = int64(time.Since(base))
		}
		switch {
		case !measuring:
			if now >= measureFrom {
				measuring, chunkOps, chunkAt = true, ops, now
			}
		case rec.filled():
			rec.closeChunk(ops-chunkOps, now-chunkAt)
			chunkOps, chunkAt = ops, now
			if now >= end {
				c.tally.attempted += ops
				return
			}
		}
	}
}

// timedWrite issues the owner's next version of block with the clock
// running, then reads it back and requires exactly that version. It
// returns the last clock reading.
func (c *client) timedWrite(tg *target, block int64, wbuf, rbuf []byte, base time.Time, record bool) int64 {
	v := tg.sh.next(wbuf, block)
	t0 := int64(time.Since(base))
	err := tg.st.WriteBlock(block, wbuf)
	t1 := int64(time.Since(base))
	if err != nil {
		c.tally.failed++
		return t1
	}
	tg.sh.ack(block, v, wbuf)
	if record {
		c.rec.sample(t1-t0, true)
	}
	err = tg.st.ReadBlockInto(block, rbuf)
	if got, ok := checkBlock(rbuf, block); err != nil || !ok || got != v {
		c.tally.failed++
	}
	return int64(time.Since(base))
}
