package main

import (
	"sort"
	"time"
)

// A recorder is one goroutine's measurement log. The run is cut into
// chunks of chunkSamples consecutive latency samples (well under a
// millisecond of reads, a few of writes), each with its op count and
// duration; every sample is kept as a histogram bucket index tagged with
// its kind; and every probeEvery samples the host probe runs and is booked
// to the open chunk. Nothing is aggregated while the clients run:
// summarise does it afterwards, when it can tell which chunks the host
// disturbed.
//
// Why: on a shared host a thread runs in modes — alone on its core, or
// 1.5-2x slower while a neighbour's thread shares it — that flip within
// milliseconds and whose mix drifts from minute to minute. Whole-run
// medians wandered by 15-35 % between runs on the authoring host while the
// undisturbed mode repeated to a few per cent. Selecting chunks by their
// own speed would also select the stack's lucky moments (no contended
// mutex, no row close), so the selection uses an independent witness.
type recorder struct {
	chunks  []chunk
	samples []uint16
	open    chunk
	probed  hist   // every probe reading of the run
	sink    uint64 // keeps the probe's arithmetic alive
}

type chunk struct {
	ops     int64 // work units completed in the chunk
	ns      int64 // its duration
	first   int   // index of its first sample
	probeNS int64 // sum of the probe readings booked to it
	probes  int64
}

const (
	// sampleWrite tags a stored bucket index as a write latency.
	sampleWrite  = 1 << 15
	chunkSamples = 64
	probeEvery   = 16
	// A chunk is undisturbed when its mean probe reading is within
	// probeTolerance of the run's fast-mode reading, taken as the
	// probeFastQuantile of all readings.
	probeTolerance    = 1.05
	probeFastQuantile = 0.01
	// minKeptShare (but at least minKept chunks) is what is kept, calmest
	// first, when fewer pass the tolerance: a run on a host that never
	// calmed down still reports its calmest moments.
	minKeptShare = 0.01
	minKept      = 16
)

// hostProbe is a fixed, throughput-bound, cache-free piece of arithmetic:
// four independent multiply-shift chains, about half a microsecond. Its
// duration does not depend on the stack under test, only on how much of
// the core the host is giving this thread.
func hostProbe() uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 300; i++ {
		a = a*0x9e3779b97f4a7c15 ^ (a >> 29)
		b = b*0xbf58476d1ce4e5b9 ^ (b >> 31)
		c = c*0x94d049bb133111eb ^ (c >> 27)
		d = d*0xd6e8feb86659fd93 ^ (d >> 32)
	}
	return a ^ b ^ c ^ d
}

func newRecorder(expectChunks int) *recorder {
	return &recorder{
		chunks:  make([]chunk, 0, expectChunks),
		samples: make([]uint16, 0, expectChunks*chunkSamples),
	}
}

// probe times one host probe and books it to the open chunk.
func (r *recorder) probe() {
	t0 := time.Now()
	r.sink += hostProbe()
	ns := int64(time.Since(t0))
	r.open.probeNS += ns
	r.open.probes++
	r.probed.record(ns)
}

// sample logs one latency; every probeEvery-th sample of a chunk is
// followed by a host probe.
func (r *recorder) sample(ns int64, write bool) {
	i := uint16(histIndex(ns))
	if write {
		i |= sampleWrite
	}
	r.samples = append(r.samples, i)
	if (len(r.samples)-r.open.first)%probeEvery == 0 {
		r.probe()
	}
}

// filled reports whether the open chunk has its samples.
func (r *recorder) filled() bool { return len(r.samples)-r.open.first >= chunkSamples }

// closeChunk ends the open chunk with the given totals and opens the next.
func (r *recorder) closeChunk(ops, ns int64) {
	r.open.ops, r.open.ns = ops, ns
	r.chunks = append(r.chunks, r.open)
	r.open = chunk{first: len(r.samples)}
}

func (c chunk) probeMean() float64 { return float64(c.probeNS) / float64(c.probes) }

// summary is what a set of recorders reduces to.
type summary struct {
	rate          float64 // sum over recorders of kept work over kept time, per second
	nsPerUnit     float64 // the same as time per unit of work, all recorders pooled
	reads, writes hist    // samples of the kept chunks, all recorders merged
	chunks, kept  int
}

// summarise keeps the chunks of each recorder that sel selects and pools
// them. A log so short that its few kept chunks hold no sample of one kind
// (a -quick run) reports that kind from all its chunks instead.
func summarise(recs []*recorder, sel func(*recorder) []int) summary {
	var s summary
	var ops, ns int64
	for _, r := range recs {
		keep := sel(r)
		s.chunks += len(r.chunks)
		s.kept += len(keep)
		var rops, rns int64
		for _, ci := range keep {
			c := r.chunks[ci]
			rops += c.ops
			rns += c.ns
			r.pool(ci, &s.reads, &s.writes)
		}
		if rns > 0 {
			s.rate += float64(rops) / (float64(rns) / 1e9)
		}
		ops += rops
		ns += rns
	}
	if ops > 0 {
		s.nsPerUnit = float64(ns) / float64(ops)
	}
	var all summary
	if s.reads.count == 0 || s.writes.count == 0 {
		for _, r := range recs {
			for ci := range r.chunks {
				r.pool(ci, &all.reads, &all.writes)
			}
		}
	}
	if s.reads.count == 0 {
		s.reads = all.reads
	}
	if s.writes.count == 0 {
		s.writes = all.writes
	}
	return s
}

// pool adds chunk ci's samples to the histogram of their kind.
func (r *recorder) pool(ci int, reads, writes *hist) {
	end := r.open.first
	if ci+1 < len(r.chunks) {
		end = r.chunks[ci+1].first
	}
	for _, v := range r.samples[r.chunks[ci].first:end] {
		h := reads
		if v&sampleWrite != 0 {
			h = writes
		}
		h.buckets[v&^sampleWrite]++
		h.count++
	}
}

// fastestShare is the share of chunks fastest keeps.
const fastestShare = 0.1

// fastest selects the quickest fastestShare of the chunks (at least one). It is only
// sound where every chunk does the same work — repeated calls of one
// recovery operation, which are also too long (10-80 ms against mode
// flips of a millisecond) for a probe before and after to say much:
// interference only slows a call down, so there the quickest calls are the
// undisturbed ones.
func fastest(r *recorder) []int {
	var timed []int
	for i, c := range r.chunks {
		if c.ns > 0 && c.ops > 0 {
			timed = append(timed, i)
		}
	}
	perUnit := func(i int) float64 { return float64(r.chunks[i].ns) / float64(r.chunks[i].ops) }
	sort.Slice(timed, func(a, b int) bool { return perUnit(timed[a]) < perUnit(timed[b]) })
	keep := int(float64(len(timed))*fastestShare + 0.5)
	if keep < 1 {
		keep = 1
	}
	if keep > len(timed) {
		keep = len(timed)
	}
	return timed[:keep]
}

// undisturbed selects the chunks the host probe says the host left alone.
func undisturbed(r *recorder) []int {
	var probed []int
	for i, c := range r.chunks {
		if c.probes > 0 && c.ns > 0 {
			probed = append(probed, i)
		}
	}
	if len(probed) == 0 {
		return nil
	}
	fast, _ := r.probed.percentile(probeFastQuantile)
	var keep []int
	for _, i := range probed {
		if r.chunks[i].probeMean() <= fast*probeTolerance {
			keep = append(keep, i)
		}
	}
	floor := int(float64(len(probed))*minKeptShare + 0.5)
	if floor < minKept {
		floor = minKept
	}
	if floor > len(probed) {
		floor = len(probed)
	}
	if len(keep) >= floor {
		return keep
	}
	sort.Slice(probed, func(a, b int) bool { return r.chunks[probed[a]].probeMean() < r.chunks[probed[b]].probeMean() })
	return probed[:floor]
}
