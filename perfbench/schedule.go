package main

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// cellLoad is one cell's open-loop arrival process in one phase.
type cellLoad struct {
	// Rate is the long-run mean in blocks per second.
	Rate float64
	// Burst > 1 makes the cell a two-state MMPP: ON at Burst×Rate for
	// 1/Burst of the time, silent otherwise, so the mean stays Rate.
	// 0 or 1 is plain Poisson.
	Burst float64
}

// burstOnMean is the mean ON dwell of an MMPP cell. Short bursts give
// a multi-second phase hundreds of ON/OFF cycles, so the share of time
// spent bursting (and with it the miss ratio) varies little from seed
// to seed.
const burstOnMean = 8 * time.Millisecond

// arrival is one scheduled block send: its due time as an offset from
// the phase start, and the sending cell.
type arrival struct {
	At   time.Duration
	Cell int
}

// subSeed derives an independent, reproducible stream seed from the
// workload seed and a label (phase name, cell, purpose).
func subSeed(seed int64, label string, idx int) int64 {
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
		b[8+i] = byte(uint64(idx) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() &^ (1 << 63))
}

// schedule generates the merged arrival schedule of one open-loop
// phase: every cell's process over [0, dur), sorted by due time. The
// same (loads, dur, seed, phase) always gives the same schedule.
func schedule(loads []cellLoad, dur time.Duration, seed int64, phase string) []arrival {
	var out []arrival
	for cell, ld := range loads {
		if ld.Rate <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(subSeed(seed, phase, cell)))
		out = append(out, cellArrivals(cell, ld, dur, rng)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// cellArrivals draws one cell's arrivals over [0, dur).
func cellArrivals(cell int, ld cellLoad, dur time.Duration, rng *rand.Rand) []arrival {
	expDur := func(mean float64) time.Duration {
		return time.Duration(rng.ExpFloat64() * mean * float64(time.Second))
	}
	var out []arrival
	if ld.Burst <= 1 {
		for t := expDur(1 / ld.Rate); t < dur; t += expDur(1 / ld.Rate) {
			out = append(out, arrival{At: t, Cell: cell})
		}
		return out
	}
	onRate := ld.Burst * ld.Rate
	onMean := burstOnMean.Seconds()
	offMean := onMean * (ld.Burst - 1)
	on := rng.Float64() < 1/ld.Burst
	for t := time.Duration(0); t < dur; {
		if !on {
			t += expDur(offMean)
			on = true
			continue
		}
		end := t + expDur(onMean)
		if end > dur {
			end = dur
		}
		for t += expDur(1 / onRate); t < end; t += expDur(1 / onRate) {
			out = append(out, arrival{At: t, Cell: cell})
		}
		t = end
		on = false
	}
	return out
}
